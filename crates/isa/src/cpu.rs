//! The CPU model: architectural state and the reference interpreter.
//!
//! The faster block-cached engine lives in [`crate::engine`]; its
//! micro-op dispatch loop mirrors the semantics of [`Cpu::exec_instr`]
//! exactly, both engines time every instruction with the same IBEX rule
//! ([`crate::pipeline`]), and the differential tests in `crate::engine`
//! plus the bit-exact deployment tests in `pcount-kernels` hold the two
//! to the same architectural results, cycles and stall counters.

use crate::engine::{self, BlockCache, ExecMode};
use crate::fusion::FusedKind;
use crate::instr::{decode, BranchOp, Decoded, Instr, LoadOp, StoreOp};
use crate::mem_model::{MemModelState, MemStats, MemoryModel};
use crate::memory::{Memory, IMEM_BASE};
use crate::pipeline::{Pipeline, PipelineStats};
use std::collections::BTreeMap;
use std::fmt;

/// Simulation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The PC left the instruction memory or was misaligned.
    BadFetch {
        /// Offending program counter.
        pc: u32,
    },
    /// The fetched word is not a supported instruction.
    IllegalInstruction {
        /// Offending program counter.
        pc: u32,
        /// Raw instruction word.
        word: u32,
    },
    /// A load or store touched an invalid data address.
    BadMemoryAccess {
        /// Offending program counter.
        pc: u32,
        /// Offending data address.
        addr: u32,
    },
    /// The program did not halt within the instruction budget.
    Timeout {
        /// The instruction budget that was exhausted.
        max_instructions: u64,
    },
    /// The program image does not fit in instruction memory.
    ProgramTooLarge {
        /// Program size in bytes.
        program_bytes: usize,
        /// Instruction memory size in bytes.
        imem_bytes: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadFetch { pc } => write!(f, "instruction fetch failed at pc {pc:#x}"),
            SimError::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#x}")
            }
            SimError::BadMemoryAccess { pc, addr } => {
                write!(f, "invalid data access to {addr:#x} at pc {pc:#x}")
            }
            SimError::Timeout { max_instructions } => {
                write!(f, "program did not halt within {max_instructions} instructions")
            }
            SimError::ProgramTooLarge {
                program_bytes,
                imem_bytes,
            } => write!(
                f,
                "program of {program_bytes} bytes does not fit in {imem_bytes} bytes of instruction memory"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-mnemonic instruction counts collected during execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// Number of executed instructions with the given mnemonic class.
    pub fn count(&self, mnemonic: &str) -> u64 {
        self.counts.get(mnemonic).copied().unwrap_or(0)
    }

    /// All (mnemonic, count) pairs in alphabetical order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Total SDOTP instructions (both widths).
    pub fn sdotp_count(&self) -> u64 {
        self.count("sdotp8") + self.count("sdotp4")
    }

    pub(crate) fn record(&mut self, mnemonic: &'static str) {
        *self.counts.entry(mnemonic).or_insert(0) += 1;
    }

    pub(crate) fn record_many(&mut self, mnemonic: &'static str, count: u64) {
        *self.counts.entry(mnemonic).or_insert(0) += count;
    }
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Retired instructions.
    pub instructions: u64,
    /// Consumed clock cycles under the IBEX-style timing model.
    pub cycles: u64,
}

/// A single-hart RV32IM + SDOTP processor model.
///
/// The cycle model follows the public IBEX documentation: single-issue,
/// in-order, most instructions retire in 1 cycle, loads/stores take 2,
/// taken branches 3, jumps 2 and divisions 37, plus one load-use
/// interlock cycle when an instruction reads the preceding load's
/// destination (see [`PipelineStats`]). The SDOTP unit is single-cycle by
/// construction (the paper replicates multipliers instead of sharing
/// them).
#[derive(Debug, Clone)]
pub struct Cpu {
    pub(crate) regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// Instruction and data memories.
    pub mem: Memory,
    /// Total cycles consumed so far.
    pub cycles: u64,
    /// Total instructions retired so far.
    pub instret: u64,
    /// Per-mnemonic execution counts.
    pub trace: Trace,
    pub(crate) halted: bool,
    mode: ExecMode,
    pub(crate) cache: BlockCache,
    pub(crate) pipeline: Pipeline,
    /// Per-slot, per-exit execution counters (see `crate::block`), folded
    /// into the trace when a block-cached run returns.
    pub(crate) block_exit_counts: Vec<Vec<u64>>,
    /// Whether a slot is on `touched_slots` (so folding is O(touched)).
    pub(crate) touched_flags: Vec<bool>,
    /// Slots with live execution counters.
    pub(crate) touched_slots: Vec<usize>,
    /// Persistent per-block trace-cache profile: completed executions per
    /// slot, accumulated across block-cached runs.
    pub(crate) block_exec_counts: Vec<u64>,
    /// Instructions retired through each slot's exits (see
    /// [`Cpu::hottest_blocks`]).
    pub(crate) block_instr_counts: Vec<u64>,
    /// The memory-hierarchy model fetches and data accesses are charged
    /// through (see [`Cpu::set_memory_model`]).
    mem_model: MemoryModel,
    /// Persistent run-time state of the memory model (refill window).
    pub(crate) mem_state: MemModelState,
    /// Per-cause memory stall counters (see [`Cpu::mem_stats`]).
    pub(crate) mem_stats: MemStats,
    /// Memory-model stall cycles attributed to each block slot,
    /// accumulated across block-cached runs (see [`Cpu::hottest_blocks`]).
    pub(crate) block_mem_stall_counts: Vec<u64>,
    /// Whether the block-cached engine executes recognised loop idioms as
    /// fused host loops (see [`Cpu::set_macro_fusion`]).
    pub(crate) fusion_enabled: bool,
    /// Fused-loop entries per block slot (one per trace entry that ran the
    /// fused executor), accumulated across block-cached runs.
    pub(crate) block_fused_entries: Vec<u64>,
    /// Loop iterations executed through the fused path per block slot.
    pub(crate) block_fused_iters: Vec<u64>,
    /// Pipeline cycles (base + flush + stalls, memory-model stalls
    /// excluded) charged by the fused path per block slot.
    pub(crate) block_fused_cycles: Vec<u64>,
    /// The fused pattern recognised at each block slot, if any.
    pub(crate) block_fused_kind: Vec<Option<FusedKind>>,
    /// Bulk-executed fused iterations not yet folded into the
    /// per-mnemonic trace (drained by `engine::fold_exec_counts` at the
    /// end of every run, so the hot loop never touches the trace map).
    pub(crate) block_fused_bulk: Vec<FusedBulk>,
}

/// Per-slot bulk iteration counters a fused loop accumulates during a
/// run, folded into the per-mnemonic trace by `engine::fold_exec_counts`
/// once the run ends. Plain counted loops use `plain` (taken back-edge
/// iterations); convolution nests count each architectural path
/// separately so the fold can reconstruct the exact per-mnemonic
/// multiset.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FusedBulk {
    /// Taken back-edge iterations of a plain fused loop.
    pub plain: u64,
    /// Runs of each convolution-nest path (`crate::fusion::NEST_PATHS`).
    pub nest: [u64; 4],
}

/// One entry of the [`Cpu::hottest_blocks`] trace-cache profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotBlock {
    /// Entry address of the superblock trace.
    pub entry_pc: u32,
    /// Completed executions of the trace (any exit).
    pub executions: u64,
    /// Instructions retired through the trace's exits.
    pub instructions: u64,
    /// Memory-hierarchy stall cycles charged while executing the trace
    /// (zero under [`MemoryModel::Flat`]) — the "why is this block
    /// expensive" column of the hot-trace report.
    pub mem_stall_cycles: u64,
    /// Name of the fused loop idiom recognised at this trace
    /// (`"mac_sdotp8"`, `"mac_sdotp4"`, `"memset"`, `"memcpy"`,
    /// `"strided_copy"`), or `None` when the trace was never executed
    /// through the fused path.
    pub fused_kind: Option<&'static str>,
    /// Trace entries that ran the fused loop executor.
    pub fused_entries: u64,
    /// Loop iterations executed through the fused path.
    pub fused_iterations: u64,
    /// Pipeline cycles (base + flush + stall) the fused path charged for
    /// those iterations; memory-model stalls stay in
    /// [`HotBlock::mem_stall_cycles`].
    pub fused_cycles: u64,
}

/// Serialises a [`Cpu::hottest_blocks`] profile as a JSON array (one
/// object per block, hex `entry_pc`), for machine-readable export from
/// the examples and the bench emitters.
pub fn hot_blocks_json(blocks: &[HotBlock]) -> String {
    let mut out = String::from("[");
    for (i, b) in blocks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let fused_kind = match b.fused_kind {
            Some(kind) => format!("\"{kind}\""),
            None => String::from("null"),
        };
        out.push_str(&format!(
            "{{\"entry_pc\":\"{:#010x}\",\"executions\":{},\"instructions\":{},\"mem_stall_cycles\":{},\"fused_kind\":{},\"fused_entries\":{},\"fused_iterations\":{},\"fused_cycles\":{}}}",
            b.entry_pc,
            b.executions,
            b.instructions,
            b.mem_stall_cycles,
            fused_kind,
            b.fused_entries,
            b.fused_iterations,
            b.fused_cycles
        ));
    }
    out.push(']');
    out
}

/// Result of executing one instruction in the reference interpreter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecOutcome {
    /// Address of the next instruction.
    pub next_pc: u32,
    /// Whether the instruction redirected the PC (jump or taken branch):
    /// a fetch flush in the pipeline model and a prefetch-buffer miss in
    /// the memory-hierarchy model.
    pub redirect: bool,
}

impl Cpu {
    /// Creates a CPU with the given memory sizes.
    pub fn new(imem_size: usize, dmem_size: usize) -> Self {
        Self {
            regs: [0; 32],
            pc: IMEM_BASE,
            mem: Memory::new(imem_size, dmem_size),
            cycles: 0,
            instret: 0,
            trace: Trace::default(),
            halted: false,
            mode: ExecMode::Simple,
            cache: BlockCache::new(imem_size),
            pipeline: Pipeline::default(),
            block_exit_counts: Vec::new(),
            touched_flags: Vec::new(),
            touched_slots: Vec::new(),
            block_exec_counts: Vec::new(),
            block_instr_counts: Vec::new(),
            mem_model: MemoryModel::Flat,
            mem_state: MemModelState::default(),
            mem_stats: MemStats::default(),
            block_mem_stall_counts: Vec::new(),
            fusion_enabled: true,
            block_fused_entries: Vec::new(),
            block_fused_iters: Vec::new(),
            block_fused_cycles: Vec::new(),
            block_fused_kind: Vec::new(),
            block_fused_bulk: Vec::new(),
        }
    }

    /// Creates a CPU with MAUPITI's 16 KB + 16 KB memories.
    pub fn new_default() -> Self {
        Self::new(16 * 1024, 16 * 1024)
    }

    /// Reads a register (x0 always reads 0).
    pub fn reg(&self, index: u8) -> u32 {
        self.regs[index as usize]
    }

    /// Writes a register (writes to x0 are ignored).
    pub fn set_reg(&mut self, index: u8, value: u32) {
        if index != 0 {
            self.regs[index as usize] = value;
        }
    }

    /// Whether the core has executed an `ecall`/`ebreak`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The execution engine used by [`Cpu::run`].
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Selects the execution engine used by [`Cpu::run`].
    ///
    /// The engines differ only in speed: architectural results, cycles,
    /// [`Cpu::pipeline_stats`] and [`Cpu::mem_stats`] are identical in
    /// both modes, so switching mid-program keeps every counter running.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// Builder-style variant of [`Cpu::set_exec_mode`].
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.set_exec_mode(mode);
        self
    }

    /// Stall/flush counters of the pipelined IBEX timing model, identical
    /// for both execution engines.
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.pipeline.stats
    }

    /// The memory-hierarchy model fetches and data accesses are charged
    /// through ([`MemoryModel::Flat`] by default).
    pub fn memory_model(&self) -> MemoryModel {
        self.mem_model
    }

    /// Selects the memory-hierarchy model. Architectural results are
    /// identical under every model — only cycle counts and the
    /// [`Cpu::mem_stats`] breakdown change. Switching models clears the
    /// model's run-time state and stall counters.
    pub fn set_memory_model(&mut self, model: MemoryModel) {
        if self.mem_model != model {
            self.mem_model = model;
            self.mem_state.reset();
            self.mem_stats = MemStats::default();
        }
    }

    /// Builder-style variant of [`Cpu::set_memory_model`].
    pub fn with_memory_model(mut self, model: MemoryModel) -> Self {
        self.set_memory_model(model);
        self
    }

    /// Per-cause stall counters of the memory-hierarchy model, identical
    /// for both execution engines (all zero under [`MemoryModel::Flat`]).
    pub fn mem_stats(&self) -> MemStats {
        self.mem_stats
    }

    /// Number of decoded basic blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    /// Whether the block-cached engine executes recognised loop idioms
    /// (SDOTP MAC reductions, memset, memcpy, strided copies) as fused
    /// host loops (enabled by default).
    pub fn macro_fusion(&self) -> bool {
        self.fusion_enabled
    }

    /// Enables or disables macro-op fusion. Architectural results —
    /// registers, memory, instret, cycles, stall breakdowns, traces and
    /// faults — are bit-identical either way; fusion only replaces
    /// per-instruction dispatch of recognised loops with one bulk host
    /// loop per trace entry. The throughput bench flips this to measure
    /// the fusion speedup.
    pub fn set_macro_fusion(&mut self, enabled: bool) {
        self.fusion_enabled = enabled;
    }

    /// The `n` hottest superblock traces executed by this CPU under
    /// [`ExecMode::BlockCached`], ordered by retired instructions
    /// (descending, then by entry address). Counts accumulate across runs
    /// and reset on [`Cpu::load_program`]; runs cut short mid-trace by a
    /// budget or fault only count their completed trace executions.
    pub fn hottest_blocks(&self, n: usize) -> Vec<HotBlock> {
        let mut hot: Vec<HotBlock> = (0..self.block_exec_counts.len())
            .filter(|&slot| self.block_exec_counts[slot] > 0)
            .map(|slot| HotBlock {
                entry_pc: IMEM_BASE + 4 * slot as u32,
                executions: self.block_exec_counts[slot],
                instructions: self.block_instr_counts[slot],
                mem_stall_cycles: self.block_mem_stall_counts[slot],
                fused_kind: self.block_fused_kind[slot].map(FusedKind::name),
                fused_entries: self.block_fused_entries[slot],
                fused_iterations: self.block_fused_iters[slot],
                fused_cycles: self.block_fused_cycles[slot],
            })
            .collect();
        hot.sort_by(|a, b| {
            b.instructions
                .cmp(&a.instructions)
                .then(a.entry_pc.cmp(&b.entry_pc))
        });
        hot.truncate(n);
        hot
    }

    /// Aggregated macro-op fusion hit counts, one `(pattern name,
    /// fused trace entries, fused loop iterations)` triple per fused
    /// loop idiom observed since the last [`Cpu::load_program`], sorted
    /// by pattern name. Empty when fusion never fired (fusion disabled,
    /// `Simple` engine, or no recognisable loops).
    pub fn fusion_profile(&self) -> Vec<(&'static str, u64, u64)> {
        let mut agg: Vec<(&'static str, u64, u64)> = Vec::new();
        for slot in 0..self.block_fused_kind.len() {
            let Some(kind) = self.block_fused_kind[slot] else {
                continue;
            };
            let name = kind.name();
            let entries = self.block_fused_entries[slot];
            let iters = self.block_fused_iters[slot];
            match agg.iter_mut().find(|(n, _, _)| *n == name) {
                Some(row) => {
                    row.1 += entries;
                    row.2 += iters;
                }
                None => agg.push((name, entries, iters)),
            }
        }
        agg.sort_by_key(|&(name, _, _)| name);
        agg
    }

    /// Encodes `program` and loads it at the start of instruction memory,
    /// resetting the PC.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProgramTooLarge`] if the image does not fit.
    pub fn load_program(&mut self, program: &[Instr]) -> Result<(), SimError> {
        let mut bytes = Vec::with_capacity(program.len() * 4);
        for instr in program {
            bytes.extend_from_slice(&instr.encode().to_le_bytes());
        }
        self.load_program_bytes(&bytes)
    }

    /// Loads an already-encoded program image.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProgramTooLarge`] if the image does not fit.
    pub fn load_program_bytes(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        self.mem
            .load_imem(bytes)
            .map_err(|imem_bytes| SimError::ProgramTooLarge {
                program_bytes: bytes.len(),
                imem_bytes,
            })?;
        self.pc = IMEM_BASE;
        self.halted = false;
        // The old image's decoded blocks are stale; clones that still run
        // the old image keep their (shared) cache untouched.
        self.cache.invalidate(self.mem.imem_size());
        // Counter tables are re-allocated lazily on the next block-cached
        // run (see `engine::run_inner`).
        self.block_exit_counts = Vec::new();
        self.touched_flags = Vec::new();
        self.touched_slots.clear();
        self.block_exec_counts = Vec::new();
        self.block_instr_counts = Vec::new();
        self.block_mem_stall_counts = Vec::new();
        self.block_fused_entries = Vec::new();
        self.block_fused_iters = Vec::new();
        self.block_fused_cycles = Vec::new();
        self.block_fused_kind = Vec::new();
        self.block_fused_bulk = Vec::new();
        self.pipeline = Pipeline::default();
        self.mem_state.reset();
        self.mem_stats = MemStats::default();
        Ok(())
    }

    /// Restores this CPU's architectural and accounting state from a
    /// pristine `base`: registers, PC, halt flag, cycle/instret counters,
    /// the per-mnemonic trace, both memory images, the pipeline model and
    /// the memory-hierarchy model state all become `base`'s, in place —
    /// the large buffers are overwritten rather than reallocated, so this
    /// is cheaper than `*self = base.clone()` on a hot streaming path.
    ///
    /// The shared block cache is re-pointed at `base`'s (an `Arc` copy),
    /// so warmed decoded traces survive the restore. The persistent
    /// trace-cache *profile* ([`Cpu::hottest_blocks`]) keeps accumulating
    /// across restores — it is observational and never feeds back into
    /// architectural results.
    ///
    /// This is the supported way to re-warm a pooled CPU after a fault
    /// (timeout mid-inference, bad memory access) left it with a torn
    /// memory image and a mid-program PC: a subsequent run is
    /// bit-identical to one on a fresh `base.clone()`.
    ///
    /// # Panics
    ///
    /// Panics if the two CPUs have different memory geometries.
    pub fn restore_from(&mut self, base: &Cpu) {
        self.regs = base.regs;
        self.pc = base.pc;
        self.halted = base.halted;
        self.cycles = base.cycles;
        self.instret = base.instret;
        self.trace = base.trace.clone();
        self.mode = base.mode;
        self.fusion_enabled = base.fusion_enabled;
        self.mem_model = base.mem_model;
        self.mem_state = base.mem_state;
        self.mem_stats = base.mem_stats;
        self.pipeline = base.pipeline;
        self.mem.copy_state_from(&base.mem);
        self.cache = base.cache.clone();
    }

    /// Executes a single instruction with the reference interpreter
    /// (fetch + decode + execute), timed by the same [`Decoded`] lowering
    /// and pipeline rule the block-cached engine uses.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on fetch, decode or memory faults.
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        let pc = self.pc;
        let word = self.mem.fetch(pc).ok_or(SimError::BadFetch { pc })?;
        let instr = decode(word).map_err(|word| SimError::IllegalInstruction { pc, word })?;
        let d = Decoded::new(instr, pc);
        self.trace.record(instr.mnemonic());
        self.instret += 1;
        self.pipeline.stats.instructions += 1;
        let out = self.exec_instr(instr, pc)?;
        self.pc = out.next_pc;
        self.cycles += self.pipeline.retire(&d, out.redirect);
        if let MemoryModel::Maupiti(cfg) = self.mem_model {
            self.cycles += self.mem_state.step(
                &cfg,
                d.is_load || d.is_store,
                out.redirect,
                &mut self.mem_stats,
            );
        }
        Ok(())
    }

    /// Executes the semantics of one instruction located at `pc`, without
    /// touching the PC, the retired-instruction counter, the trace or the
    /// timing model — the caller does that bookkeeping from the returned
    /// [`ExecOutcome`].
    #[inline]
    pub(crate) fn exec_instr(&mut self, instr: Instr, pc: u32) -> Result<ExecOutcome, SimError> {
        let mut next_pc = pc.wrapping_add(4);
        let mut redirect = false;
        match instr {
            Instr::Lui { rd, imm } => self.set_reg(rd, (imm as u32) << 12),
            Instr::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add((imm as u32) << 12)),
            Instr::Jal { rd, offset } => {
                self.set_reg(rd, next_pc);
                next_pc = pc.wrapping_add(offset as u32);
                redirect = true;
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, next_pc);
                next_pc = target;
                redirect = true;
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let branch_taken = match op {
                    BranchOp::Beq => a == b,
                    BranchOp::Bne => a != b,
                    BranchOp::Blt => (a as i32) < (b as i32),
                    BranchOp::Bge => (a as i32) >= (b as i32),
                    BranchOp::Bltu => a < b,
                    BranchOp::Bgeu => a >= b,
                };
                if branch_taken {
                    next_pc = pc.wrapping_add(offset as u32);
                    redirect = true;
                }
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let (len, signed) = match op {
                    LoadOp::Lb => (1, true),
                    LoadOp::Lh => (2, true),
                    LoadOp::Lw => (4, false),
                    LoadOp::Lbu => (1, false),
                    LoadOp::Lhu => (2, false),
                };
                let raw = self
                    .mem
                    .load(addr, len)
                    .ok_or(SimError::BadMemoryAccess { pc, addr })?;
                let value = if signed {
                    let bits = 8 * len as u32;
                    (((raw << (32 - bits)) as i32) >> (32 - bits)) as u32
                } else {
                    raw
                };
                self.set_reg(rd, value);
            }
            Instr::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let len = match op {
                    StoreOp::Sb => 1,
                    StoreOp::Sh => 2,
                    StoreOp::Sw => 4,
                };
                self.mem
                    .store(addr, self.reg(rs2), len)
                    .ok_or(SimError::BadMemoryAccess { pc, addr })?;
            }
            Instr::Addi { rd, rs1, imm } => {
                self.set_reg(rd, self.reg(rs1).wrapping_add(imm as u32));
            }
            Instr::Slti { rd, rs1, imm } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) < imm) as u32);
            }
            Instr::Sltiu { rd, rs1, imm } => {
                self.set_reg(rd, (self.reg(rs1) < imm as u32) as u32);
            }
            Instr::Xori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) ^ imm as u32),
            Instr::Ori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) | imm as u32),
            Instr::Andi { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) & imm as u32),
            Instr::Slli { rd, rs1, shamt } => self.set_reg(rd, self.reg(rs1) << (shamt & 31)),
            Instr::Srli { rd, rs1, shamt } => self.set_reg(rd, self.reg(rs1) >> (shamt & 31)),
            Instr::Srai { rd, rs1, shamt } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) >> (shamt & 31)) as u32);
            }
            Instr::Add { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1).wrapping_add(self.reg(rs2)));
            }
            Instr::Sub { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1).wrapping_sub(self.reg(rs2)));
            }
            Instr::Sll { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1) << (self.reg(rs2) & 31));
            }
            Instr::Slt { rd, rs1, rs2 } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) < (self.reg(rs2) as i32)) as u32);
            }
            Instr::Sltu { rd, rs1, rs2 } => {
                self.set_reg(rd, (self.reg(rs1) < self.reg(rs2)) as u32);
            }
            Instr::Xor { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) ^ self.reg(rs2)),
            Instr::Srl { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1) >> (self.reg(rs2) & 31));
            }
            Instr::Sra { rd, rs1, rs2 } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) >> (self.reg(rs2) & 31)) as u32);
            }
            Instr::Or { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) | self.reg(rs2)),
            Instr::And { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) & self.reg(rs2)),
            Instr::Mul { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1).wrapping_mul(self.reg(rs2)));
            }
            Instr::Mulh { rd, rs1, rs2 } => {
                let prod = (self.reg(rs1) as i32 as i64) * (self.reg(rs2) as i32 as i64);
                self.set_reg(rd, (prod >> 32) as u32);
            }
            Instr::Mulhsu { rd, rs1, rs2 } => {
                let prod = (self.reg(rs1) as i32 as i64) * (self.reg(rs2) as u64 as i64);
                self.set_reg(rd, (prod >> 32) as u32);
            }
            Instr::Mulhu { rd, rs1, rs2 } => {
                let prod = (self.reg(rs1) as u64) * (self.reg(rs2) as u64);
                self.set_reg(rd, (prod >> 32) as u32);
            }
            Instr::Div { rd, rs1, rs2 } => {
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let q = if b == 0 {
                    -1
                } else if a == i32::MIN && b == -1 {
                    a
                } else {
                    a / b
                };
                self.set_reg(rd, q as u32);
            }
            Instr::Divu { rd, rs1, rs2 } => {
                let q = self.reg(rs1).checked_div(self.reg(rs2)).unwrap_or(u32::MAX);
                self.set_reg(rd, q);
            }
            Instr::Rem { rd, rs1, rs2 } => {
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let r = if b == 0 {
                    a
                } else if a == i32::MIN && b == -1 {
                    0
                } else {
                    a % b
                };
                self.set_reg(rd, r as u32);
            }
            Instr::Remu { rd, rs1, rs2 } => {
                let b = self.reg(rs2);
                let r = if b == 0 {
                    self.reg(rs1)
                } else {
                    self.reg(rs1) % b
                };
                self.set_reg(rd, r);
            }
            Instr::Sdotp8 { rd, rs1, rs2 } => {
                let acc = self.reg(rd) as i32;
                self.set_reg(rd, (acc + sdotp8(self.reg(rs1), self.reg(rs2))) as u32);
            }
            Instr::Sdotp4 { rd, rs1, rs2 } => {
                let acc = self.reg(rd) as i32;
                self.set_reg(rd, (acc + sdotp4(self.reg(rs1), self.reg(rs2))) as u32);
            }
            Instr::Ecall | Instr::Ebreak => {
                self.halted = true;
            }
        }
        Ok(ExecOutcome { next_pc, redirect })
    }

    /// Runs until the program halts (via `ecall`/`ebreak`) or the budget of
    /// `max_instructions` is exhausted, using the engine selected by
    /// [`Cpu::set_exec_mode`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the budget is exhausted, or any
    /// fault raised by the executed instructions.
    pub fn run(&mut self, max_instructions: u64) -> Result<RunSummary, SimError> {
        match self.mode {
            ExecMode::Simple => self.run_simple(max_instructions),
            ExecMode::BlockCached => engine::run(self, max_instructions),
        }
    }

    fn run_simple(&mut self, max_instructions: u64) -> Result<RunSummary, SimError> {
        let start_instret = self.instret;
        let start_cycles = self.cycles;
        while !self.halted {
            if self.instret - start_instret >= max_instructions {
                return Err(SimError::Timeout { max_instructions });
            }
            self.step()?;
        }
        Ok(RunSummary {
            instructions: self.instret - start_instret,
            cycles: self.cycles - start_cycles,
        })
    }
}

/// Reference semantics of the 8-bit SDOTP: sum of four signed byte products.
pub(crate) fn sdotp8(a: u32, b: u32) -> i32 {
    let mut acc = 0i32;
    for i in 0..4 {
        let x = ((a >> (8 * i)) & 0xFF) as u8 as i8 as i32;
        let y = ((b >> (8 * i)) & 0xFF) as u8 as i8 as i32;
        acc += x * y;
    }
    acc
}

/// Reference semantics of the 4-bit SDOTP: sum of eight signed nibble
/// products.
pub(crate) fn sdotp4(a: u32, b: u32) -> i32 {
    let mut acc = 0i32;
    for i in 0..8 {
        let x = ((a >> (4 * i)) & 0xF) as i32;
        let y = ((b >> (4 * i)) & 0xF) as i32;
        let xs = if x >= 8 { x - 16 } else { x };
        let ys = if y >= 8 { y - 16 } else { y };
        acc += xs * ys;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DMEM_BASE;
    use crate::reg;
    use proptest::prelude::*;

    fn run_program(program: &[Instr]) -> Cpu {
        let mut cpu = Cpu::new_default();
        cpu.load_program(program).unwrap();
        cpu.run(100_000).unwrap();
        cpu
    }

    #[test]
    fn arithmetic_and_immediates_work() {
        let cpu = run_program(&[
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 100,
            },
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::ZERO,
                imm: -3,
            },
            Instr::Add {
                rd: reg::A2,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sub {
                rd: reg::A3,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Mul {
                rd: reg::A4,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Ebreak,
        ]);
        assert_eq!(cpu.reg(reg::A2) as i32, 97);
        assert_eq!(cpu.reg(reg::A3) as i32, 103);
        assert_eq!(cpu.reg(reg::A4) as i32, -300);
    }

    #[test]
    fn x0_is_hardwired_to_zero() {
        let cpu = run_program(&[
            Instr::Addi {
                rd: reg::ZERO,
                rs1: reg::ZERO,
                imm: 55,
            },
            Instr::Ebreak,
        ]);
        assert_eq!(cpu.reg(reg::ZERO), 0);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut cpu = Cpu::new_default();
        cpu.load_program(&[
            Instr::Lui {
                rd: reg::A0,
                imm: (DMEM_BASE >> 12) as i32,
            },
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::ZERO,
                imm: -77,
            },
            Instr::Store {
                op: StoreOp::Sw,
                rs1: reg::A0,
                rs2: reg::A1,
                offset: 16,
            },
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A2,
                rs1: reg::A0,
                offset: 16,
            },
            Instr::Store {
                op: StoreOp::Sb,
                rs1: reg::A0,
                rs2: reg::A1,
                offset: 20,
            },
            Instr::Load {
                op: LoadOp::Lb,
                rd: reg::A3,
                rs1: reg::A0,
                offset: 20,
            },
            Instr::Load {
                op: LoadOp::Lbu,
                rd: reg::A4,
                rs1: reg::A0,
                offset: 20,
            },
            Instr::Ebreak,
        ])
        .unwrap();
        cpu.run(100).unwrap();
        assert_eq!(cpu.reg(reg::A2) as i32, -77);
        assert_eq!(cpu.reg(reg::A3) as i32, -77);
        assert_eq!(cpu.reg(reg::A4), 0xB3); // low byte of -77, zero-extended
    }

    #[test]
    fn branches_and_loops_count_correctly() {
        // Sum 1..=10 with a loop.
        let cpu = run_program(&[
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 10,
            }, // counter
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 0,
            }, // acc
            // loop:
            Instr::Add {
                rd: reg::A0,
                rs1: reg::A0,
                rs2: reg::T0,
            },
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::T0,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T0,
                rs2: reg::ZERO,
                offset: -8,
            },
            Instr::Ebreak,
        ]);
        assert_eq!(cpu.reg(reg::A0), 55);
    }

    #[test]
    fn jal_and_jalr_link_and_jump() {
        let cpu = run_program(&[
            Instr::Jal {
                rd: reg::RA,
                offset: 12,
            }, // skip the next two instrs
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 1,
            }, // skipped
            Instr::Ebreak, // skipped
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::ZERO,
                imm: 7,
            },
            Instr::Jalr {
                rd: reg::ZERO,
                rs1: reg::RA,
                offset: 4,
            }, // return past the first addi
            Instr::Ebreak,
        ]);
        assert_eq!(cpu.reg(reg::A0), 0);
        assert_eq!(cpu.reg(reg::A1), 7);
        assert_eq!(cpu.reg(reg::RA), 4);
    }

    #[test]
    fn division_semantics_follow_the_spec() {
        let cpu = run_program(&[
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: -7,
            },
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::ZERO,
                imm: 2,
            },
            Instr::Div {
                rd: reg::A2,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Rem {
                rd: reg::A3,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Div {
                rd: reg::A4,
                rs1: reg::A0,
                rs2: reg::ZERO,
            },
            Instr::Ebreak,
        ]);
        assert_eq!(cpu.reg(reg::A2) as i32, -3);
        assert_eq!(cpu.reg(reg::A3) as i32, -1);
        assert_eq!(cpu.reg(reg::A4) as i32, -1); // divide by zero => -1
    }

    #[test]
    fn sdotp8_matches_scalar_reference() {
        // a = [1, -2, 3, -4], b = [5, 6, -7, 8] packed little-endian.
        let a = u32::from_le_bytes([1i8 as u8, (-2i8) as u8, 3i8 as u8, (-4i8) as u8]);
        let b = u32::from_le_bytes([5i8 as u8, 6i8 as u8, (-7i8) as u8, 8i8 as u8]);
        assert_eq!(sdotp8(a, b), 5 - 2 * 6 - 3 * 7 - 4 * 8);
        let mut cpu = Cpu::new_default();
        cpu.load_program(&[
            Instr::Sdotp8 {
                rd: reg::A2,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sdotp8 {
                rd: reg::A2,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Ebreak,
        ])
        .unwrap();
        cpu.set_reg(reg::A0, a);
        cpu.set_reg(reg::A1, b);
        cpu.set_reg(reg::A2, 100);
        cpu.run(10).unwrap();
        assert_eq!(cpu.reg(reg::A2) as i32, 100 + 2 * sdotp8(a, b));
        assert_eq!(cpu.trace.sdotp_count(), 2);
    }

    #[test]
    fn sdotp4_handles_signed_nibbles() {
        // Nibbles: [7, -8, 1, -1, 0, 3, -3, 2] (little-endian nibble order).
        let lanes: [i32; 8] = [7, -8, 1, -1, 0, 3, -3, 2];
        let mut a = 0u32;
        for (i, &v) in lanes.iter().enumerate() {
            a |= ((v & 0xF) as u32) << (4 * i);
        }
        let b = a; // dot product with itself = sum of squares
        let expected: i32 = lanes.iter().map(|&v| v * v).sum();
        assert_eq!(sdotp4(a, b), expected);
    }

    #[test]
    fn cycle_model_charges_more_for_memory_and_branches() {
        let mut cpu = Cpu::new_default();
        cpu.load_program(&[
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 1,
            },
            Instr::Ebreak,
        ])
        .unwrap();
        let alu_only = cpu.run(10).unwrap();
        assert_eq!(alu_only.instructions, 2);
        assert_eq!(alu_only.cycles, 2);

        let mut cpu = Cpu::new_default();
        cpu.load_program(&[
            Instr::Lui {
                rd: reg::A0,
                imm: (DMEM_BASE >> 12) as i32,
            },
            Instr::Store {
                op: StoreOp::Sw,
                rs1: reg::A0,
                rs2: reg::ZERO,
                offset: 0,
            },
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A1,
                rs1: reg::A0,
                offset: 0,
            },
            Instr::Ebreak,
        ])
        .unwrap();
        let with_mem = cpu.run(10).unwrap();
        assert_eq!(with_mem.instructions, 4);
        assert_eq!(with_mem.cycles, 1 + 2 + 2 + 1);
    }

    #[test]
    fn runaway_programs_time_out() {
        let mut cpu = Cpu::new_default();
        cpu.load_program(&[Instr::Jal {
            rd: reg::ZERO,
            offset: 0,
        }])
        .unwrap();
        assert!(matches!(cpu.run(100), Err(SimError::Timeout { .. })));
    }

    #[test]
    fn illegal_instruction_is_reported() {
        let mut cpu = Cpu::new_default();
        cpu.load_program_bytes(&0xFFFF_FFFFu32.to_le_bytes())
            .unwrap();
        assert!(matches!(
            cpu.run(10),
            Err(SimError::IllegalInstruction { .. })
        ));
    }

    #[test]
    fn out_of_bounds_store_is_reported() {
        let mut cpu = Cpu::new_default();
        cpu.load_program(&[
            Instr::Store {
                op: StoreOp::Sw,
                rs1: reg::ZERO,
                rs2: reg::ZERO,
                offset: 0,
            },
            Instr::Ebreak,
        ])
        .unwrap();
        assert!(matches!(cpu.run(10), Err(SimError::BadMemoryAccess { .. })));
    }

    #[test]
    fn program_too_large_is_rejected() {
        let mut cpu = Cpu::new(16, 16);
        let program = vec![Instr::Ebreak; 5];
        assert!(matches!(
            cpu.load_program(&program),
            Err(SimError::ProgramTooLarge { .. })
        ));
    }

    proptest! {
        #[test]
        fn sdotp8_equals_scalar_loop(a in any::<u32>(), b in any::<u32>()) {
            let mut expected = 0i64;
            for i in 0..4 {
                let x = ((a >> (8 * i)) & 0xFF) as u8 as i8 as i64;
                let y = ((b >> (8 * i)) & 0xFF) as u8 as i8 as i64;
                expected += x * y;
            }
            prop_assert_eq!(sdotp8(a, b) as i64, expected);
        }

        #[test]
        fn sdotp4_equals_scalar_loop(a in any::<u32>(), b in any::<u32>()) {
            let mut expected = 0i64;
            for i in 0..8 {
                let xs = ((a >> (4 * i)) & 0xF) as i64;
                let ys = ((b >> (4 * i)) & 0xF) as i64;
                let xs = if xs >= 8 { xs - 16 } else { xs };
                let ys = if ys >= 8 { ys - 16 } else { ys };
                expected += xs * ys;
            }
            prop_assert_eq!(sdotp4(a, b) as i64, expected);
        }
    }
}
