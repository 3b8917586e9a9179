//! The block-cached execution engine.
//!
//! Instead of fetching and decoding one word per [`Cpu::step`], the engine
//! decodes each superblock trace once into a dense `Vec<Decoded>`
//! ([`crate::block`]) whose elements carry fully lowered micro-ops (every
//! immediate, width and control-flow target pre-resolved), caches it keyed
//! by entry PC, and dispatches cached traces in a tight threaded loop that
//! never touches `Memory::fetch`, re-decodes a word, or updates the trace
//! map per instruction. Every retired instruction is timed by the same
//! IBEX rule the reference interpreter steps ([`crate::pipeline`]).
//!
//! Three levels keep the dispatch overhead off the hot path:
//!
//! 1. superblocks extend through conditional branches (side exits) and
//!    unconditional jumps, so kernel loop bodies split across labels
//!    execute as one trace;
//! 2. an exit that targets its own trace entry (every tight loop)
//!    re-enters the execution loop locally, with no dispatch at all;
//! 3. a one-entry dispatch memo catches the remaining repeated entries.
//!
//! Instruction-mix accounting is O(1) per trace execution: every exit
//! carries its pre-aggregated per-mnemonic prefix counts and the CPU
//! counts (slot, exit) pairs; the counters are folded into the
//! [`crate::Trace`] when [`run`] returns (on success *and* on error), so
//! observable state is indistinguishable from the reference interpreter.
//!
//! The cache is shared (copy-on-`load_program`) between clones of a `Cpu`,
//! including clones running on other threads: decoded blocks live behind
//! `Arc` in an immutable published snapshot, each CPU probes its own
//! lock-free snapshot handle, and a mutex-guarded publish step (taken only
//! when a block is *built*) makes new blocks visible to every clone. A
//! deployment that clones a pristine CPU per inference therefore warms the
//! cache once and every later frame — on any thread — dispatches fully
//! pre-decoded code. Loading a new program image swaps in a fresh cache,
//! so clones diverging by program never see each other's blocks.
//!
//! The engines differ only in speed: architectural results (registers,
//! memory, instruction counts, trace, faults), cycles and stall counters
//! are identical to [`ExecMode::Simple`] — the differential tests below
//! and the deployment tests in `pcount-kernels` hold both engines to
//! bit-exactness. When touching instruction semantics, change BOTH
//! [`Cpu::exec_instr`] and [`run_inner`] here.

use crate::block::{build_block, Block, BlockEnd};
use crate::cpu::{sdotp4, sdotp8, Cpu, RunSummary, SimError};
use crate::fusion::{FusedDetail, NEST_LEN, NEST_PATHS};
use crate::instr::Op;
use crate::mem_model::{MemStats, MemoryModel};
use crate::memory::{Memory, IMEM_BASE};
use crate::pipeline::Pipeline;
use std::sync::{Arc, Mutex};

/// Which execution engine a [`Cpu`] uses in [`Cpu::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Reference interpreter: fetch + decode + execute every instruction.
    #[default]
    Simple,
    /// Pre-decoded superblock cache with macro-op fusion: the same
    /// results and timing as `Simple`, several times faster.
    BlockCached,
}

/// One decoded-block table: direct-mapped by word index, immutable once
/// published.
type Slots = Vec<Option<Arc<Block>>>;

/// Lazily populated cache of decoded blocks, shared between CPU clones
/// across threads (see module docs).
///
/// Reads go through `local`, a lock-free snapshot handle owned by this
/// CPU. Building a block takes the `published` mutex, re-checks the latest
/// snapshot (another thread may have built the same block), publishes a
/// copy-on-write successor snapshot and refreshes `local`. The copy is
/// O(slots) but happens at most once per distinct block per program image
/// — never on the dispatch hot path. Everything here is `Send + Sync`, so
/// `Cpu` can move across threads and a warmed deployment CPU can be cloned
/// into a thread pool.
#[derive(Debug, Clone)]
pub(crate) struct BlockCache {
    /// Latest published snapshot, shared by every clone of this image.
    published: Arc<Mutex<Arc<Slots>>>,
    /// This CPU's read-only snapshot.
    local: Arc<Slots>,
}

impl BlockCache {
    /// An empty cache with one slot per instruction word.
    pub(crate) fn new(imem_bytes: usize) -> Self {
        let slots: Arc<Slots> = Arc::new(vec![None; imem_bytes / 4]);
        Self {
            published: Arc::new(Mutex::new(Arc::clone(&slots))),
            local: slots,
        }
    }

    /// Replaces the slot table with a fresh one (new program image). Other
    /// clones keep the old table.
    pub(crate) fn invalidate(&mut self, imem_bytes: usize) {
        *self = Self::new(imem_bytes);
    }

    /// Number of blocks currently published.
    pub(crate) fn len(&self) -> usize {
        self.published
            .lock()
            .expect("block cache lock")
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// Returns the slot index and block entered at `pc`, building and
    /// publishing the block on miss. `None` means `pc` cannot index
    /// instruction memory at all.
    #[inline]
    fn get_or_build(&mut self, mem: &Memory, pc: u32) -> Option<(usize, Arc<Block>)> {
        let off = pc.checked_sub(IMEM_BASE)? as usize;
        if !off.is_multiple_of(4) {
            return None;
        }
        let index = off / 4;
        match self.local.get(index)? {
            Some(block) => Some((index, Arc::clone(block))),
            None => self.build_and_publish(mem, pc, index),
        }
    }

    /// Cold path of [`BlockCache::get_or_build`]: builds the block under
    /// the publish lock (unless a sibling already did) and makes it
    /// visible to every clone.
    #[cold]
    fn build_and_publish(
        &mut self,
        mem: &Memory,
        pc: u32,
        index: usize,
    ) -> Option<(usize, Arc<Block>)> {
        let mut published = self.published.lock().expect("block cache lock");
        if let Some(block) = &published[index] {
            let block = Arc::clone(block);
            self.local = Arc::clone(&published);
            return Some((index, block));
        }
        let block = Arc::new(build_block(mem, pc));
        let mut next: Slots = (**published).clone();
        next[index] = Some(Arc::clone(&block));
        let next = Arc::new(next);
        *published = Arc::clone(&next);
        self.local = next;
        Some((index, block))
    }

    /// The block cached in `slot` of this CPU's local snapshot. Every slot
    /// a run executes came through [`BlockCache::get_or_build`], which
    /// leaves its block in the local snapshot.
    fn cached(&self, slot: usize) -> Option<Arc<Block>> {
        self.local.get(slot)?.as_ref().map(Arc::clone)
    }
}

/// Runs `cpu` until halt or budget exhaustion using the block cache.
pub(crate) fn run(cpu: &mut Cpu, max_instructions: u64) -> Result<RunSummary, SimError> {
    let start_instret = cpu.instret;
    let start_cycles = cpu.cycles;
    let result = run_inner(cpu, max_instructions);
    fold_exec_counts(cpu);
    result?;
    Ok(RunSummary {
        instructions: cpu.instret - start_instret,
        cycles: cpu.cycles - start_cycles,
    })
}

fn run_inner(cpu: &mut Cpu, max_instructions: u64) -> Result<(), SimError> {
    // All per-instruction accounting lives in locals for the whole run and
    // is committed to the CPU exactly once on exit (including error exits),
    // so the dispatch loop does no redundant memory traffic.
    let mut executed = 0u64;
    let mut cycles = 0u64;
    let mut pipe = cpu.pipeline;
    // One-entry dispatch memo: loop back-edges re-enter the same trace, so
    // the common case is a single PC compare instead of a cache probe.
    let mut memo: Option<(u32, usize, Arc<Block>)> = None;
    let mut fault: Option<SimError> = None;
    let fusion = cpu.fusion_enabled;
    // Memory-hierarchy model: `None` for the flat (free) model, so the
    // dispatch loop pays one branch per trace execution. Under the
    // Maupiti model, every retired prefix is charged in one
    // `charge_prefix` call against the block's precomputed access
    // summary — never per instruction.
    let maupiti = match cpu.memory_model() {
        MemoryModel::Flat => None,
        MemoryModel::Maupiti(cfg) => Some(cfg),
    };
    let mut mem_state = cpu.mem_state;
    let mut mem_stats = MemStats::default();
    // Memory-model charge base for the current trace execution:
    // positions [0, mem_base) were already charged in bulk by a
    // mid-trace fused loop, so the segment-convention handlers charge
    // [mem_base, exit) instead of the whole prefix. Reset per dispatch
    // and per self-loop re-entry. Declared here so `charge_mem!` can see
    // it across macro hygiene.
    let mut mem_base;
    // Accounting state is allocated on first block-cached use, so CPUs that
    // only ever run the reference interpreter (and the pristine CPU a
    // deployment clones per inference) carry nothing to copy.
    let slots = cpu.mem.imem_size() / 4;
    if cpu.block_exit_counts.len() != slots {
        cpu.block_exit_counts = vec![Vec::new(); slots];
        cpu.touched_flags = vec![false; slots];
        cpu.block_exec_counts = vec![0; slots];
        cpu.block_instr_counts = vec![0; slots];
        cpu.block_mem_stall_counts = vec![0; slots];
        cpu.block_fused_entries = vec![0; slots];
        cpu.block_fused_iters = vec![0; slots];
        cpu.block_fused_cycles = vec![0; slots];
        cpu.block_fused_kind = vec![None; slots];
        cpu.block_fused_bulk = vec![crate::cpu::FusedBulk::default(); slots];
    }

    // Charges the memory model for the retired segment [mem_base, $n) of
    // the current trace execution and attributes the stall cycles to the
    // trace's profile slot. `mem_base` is 0 except after a mid-trace
    // fused loop ran, which charges the trace up to its loop head and
    // its bulk iterations itself. `$exit_redirect` marks a taken side
    // exit ending the segment. A no-op under the flat model.
    macro_rules! charge_mem {
        ($block:expr, $slot:expr, $n:expr, $exit_redirect:expr) => {
            if let Some(cfg) = &maupiti {
                let stall = mem_state.charge_prefix(
                    cfg,
                    &$block.mem_prefix,
                    &$block.redirects,
                    mem_base,
                    $n,
                    $exit_redirect,
                    &mut mem_stats,
                );
                cycles += stall;
                cpu.block_mem_stall_counts[$slot] += stall;
            }
        };
    }

    // Writes `rd`, keeping x0 hard-wired to zero without a branch.
    macro_rules! wr {
        ($d:expr, $v:expr) => {{
            // The mask elides the bounds check (register fields are < 32
            // by construction).
            cpu.regs[$d.rd as usize & 31] = $v;
            cpu.regs[0] = 0;
        }};
    }

    'dispatch: while !cpu.halted {
        if executed >= max_instructions {
            fault = Some(SimError::Timeout { max_instructions });
            break;
        }
        let pc = cpu.pc;
        let (slot, block) = match &memo {
            Some((memo_pc, slot, block)) if *memo_pc == pc => (*slot, Arc::clone(block)),
            _ => {
                let Some((slot, block)) = cpu.cache.get_or_build(&cpu.mem, pc) else {
                    fault = Some(SimError::BadFetch { pc });
                    break;
                };
                memo = Some((pc, slot, Arc::clone(&block)));
                (slot, block)
            }
        };
        let block = &block;
        if !cpu.touched_flags[slot] {
            cpu.touched_flags[slot] = true;
            cpu.touched_slots.push(slot);
            if cpu.block_exit_counts[slot].len() != block.exits.len() {
                cpu.block_exit_counts[slot] = vec![0; block.exits.len()];
            }
        }
        let len = block.instrs.len();
        let entry = block.entry_pc;
        let end_exit = block.exits.len() - 1;
        // Trace position the per-instruction pass resumes from: nonzero
        // only right after a fused loop ran, so the pass continues past
        // (or, on a declined/partial run, from) the loop head.
        let mut start = 0usize;
        mem_base = 0;
        let active_fused = block.fused.as_ref().filter(|_| fusion);
        // Macro-op fusion gets one shot per trace execution: the pass
        // pauses when it reaches the recognised loop head, the fused
        // executor runs the whole loop, and the pass resumes past it.
        let mut fused_armed = active_fused.is_some();
        // Tight loops (side or end exits back to the trace entry) re-enter
        // here without another dispatch.
        loop {
            let remaining = max_instructions - executed;
            let n = if remaining < len as u64 {
                remaining as usize
            } else {
                len
            };
            let full = n == len;
            // Pause point for macro-op fusion: stop the pass at the loop
            // head so the recognised loop can run fused.
            let stop = match active_fused {
                Some(f) if fused_armed && f.start < n => f.start,
                _ => n,
            };
            let mut ctrl_next = block.cont_pc;
            let mut mem_fault: Option<(usize, u32)> = None;
            let mut side_exit: Option<(usize, u16)> = None;
            for (i, d) in block.instrs[start..stop].iter().enumerate() {
                let i = i + start;
                let rs1v = cpu.regs[d.rs1 as usize & 31];
                let rs2v = cpu.regs[d.rs2 as usize & 31];
                // A faulting instruction does not retire: it leaves the
                // timing model untouched, exactly like the reference
                // interpreter.
                macro_rules! bad_addr {
                    ($addr:expr) => {{
                        mem_fault = Some((i, $addr));
                        break;
                    }};
                }
                // A taken conditional branch leaves the trace through its
                // side exit.
                macro_rules! take_exit {
                    ($target:expr) => {{
                        ctrl_next = $target;
                        cycles += pipe.retire(d, true);
                        side_exit = Some((i, d.exit_ordinal));
                        break;
                    }};
                }
                match d.op {
                    Op::Addi(imm) => wr!(d, rs1v.wrapping_add(imm)),
                    Op::Add => wr!(d, rs1v.wrapping_add(rs2v)),
                    Op::Lw(off) => {
                        let addr = rs1v.wrapping_add(off);
                        match cpu.mem.load_word(addr) {
                            Some(v) => wr!(d, v),
                            None => bad_addr!(addr),
                        }
                    }
                    Op::Sw(off) => {
                        let addr = rs1v.wrapping_add(off);
                        if cpu.mem.store_word(addr, rs2v).is_none() {
                            bad_addr!(addr);
                        }
                    }
                    Op::Sdotp8 => {
                        let acc = cpu.regs[d.rd as usize & 31] as i32;
                        wr!(d, (acc + sdotp8(rs1v, rs2v)) as u32);
                    }
                    Op::Sdotp4 => {
                        let acc = cpu.regs[d.rd as usize & 31] as i32;
                        wr!(d, (acc + sdotp4(rs1v, rs2v)) as u32);
                    }
                    Op::Lui(value) => wr!(d, value),
                    Op::Auipc(value) => wr!(d, value),
                    Op::Slti(imm) => wr!(d, ((rs1v as i32) < imm) as u32),
                    Op::Sltiu(imm) => wr!(d, (rs1v < imm) as u32),
                    Op::Xori(imm) => wr!(d, rs1v ^ imm),
                    Op::Ori(imm) => wr!(d, rs1v | imm),
                    Op::Andi(imm) => wr!(d, rs1v & imm),
                    Op::Slli(sh) => wr!(d, rs1v << sh),
                    Op::Srli(sh) => wr!(d, rs1v >> sh),
                    Op::Srai(sh) => wr!(d, ((rs1v as i32) >> sh) as u32),
                    Op::Sub => wr!(d, rs1v.wrapping_sub(rs2v)),
                    Op::Sll => wr!(d, rs1v << (rs2v & 31)),
                    Op::Slt => wr!(d, ((rs1v as i32) < (rs2v as i32)) as u32),
                    Op::Sltu => wr!(d, (rs1v < rs2v) as u32),
                    Op::Xor => wr!(d, rs1v ^ rs2v),
                    Op::Srl => wr!(d, rs1v >> (rs2v & 31)),
                    Op::Sra => wr!(d, ((rs1v as i32) >> (rs2v & 31)) as u32),
                    Op::Or => wr!(d, rs1v | rs2v),
                    Op::And => wr!(d, rs1v & rs2v),
                    Op::Mul => wr!(d, rs1v.wrapping_mul(rs2v)),
                    Op::Mulh => {
                        wr!(
                            d,
                            (((rs1v as i32 as i64) * (rs2v as i32 as i64)) >> 32) as u32
                        )
                    }
                    Op::Mulhsu => {
                        wr!(
                            d,
                            (((rs1v as i32 as i64) * (rs2v as u64 as i64)) >> 32) as u32
                        )
                    }
                    Op::Mulhu => wr!(d, (((rs1v as u64) * (rs2v as u64)) >> 32) as u32),
                    Op::Div => {
                        let a = rs1v as i32;
                        let b = rs2v as i32;
                        let q = if b == 0 {
                            -1
                        } else if a == i32::MIN && b == -1 {
                            a
                        } else {
                            a / b
                        };
                        wr!(d, q as u32);
                    }
                    Op::Divu => wr!(d, rs1v.checked_div(rs2v).unwrap_or(u32::MAX)),
                    Op::Rem => {
                        let a = rs1v as i32;
                        let b = rs2v as i32;
                        let r = if b == 0 {
                            a
                        } else if a == i32::MIN && b == -1 {
                            0
                        } else {
                            a % b
                        };
                        wr!(d, r as u32);
                    }
                    Op::Remu => wr!(d, if rs2v == 0 { rs1v } else { rs1v % rs2v }),
                    Op::Lb(off) => {
                        let addr = rs1v.wrapping_add(off);
                        match cpu.mem.load_byte(addr) {
                            Some(v) => wr!(d, v as i8 as i32 as u32),
                            None => bad_addr!(addr),
                        }
                    }
                    Op::Lh(off) => {
                        let addr = rs1v.wrapping_add(off);
                        match cpu.mem.load_half(addr) {
                            Some(v) => wr!(d, v as i16 as i32 as u32),
                            None => bad_addr!(addr),
                        }
                    }
                    Op::Lbu(off) => {
                        let addr = rs1v.wrapping_add(off);
                        match cpu.mem.load_byte(addr) {
                            Some(v) => wr!(d, v as u32),
                            None => bad_addr!(addr),
                        }
                    }
                    Op::Lhu(off) => {
                        let addr = rs1v.wrapping_add(off);
                        match cpu.mem.load_half(addr) {
                            Some(v) => wr!(d, v as u32),
                            None => bad_addr!(addr),
                        }
                    }
                    Op::Sb(off) => {
                        let addr = rs1v.wrapping_add(off);
                        if cpu.mem.store_byte(addr, rs2v as u8).is_none() {
                            bad_addr!(addr);
                        }
                    }
                    Op::Sh(off) => {
                        let addr = rs1v.wrapping_add(off);
                        if cpu.mem.store_half(addr, rs2v as u16).is_none() {
                            bad_addr!(addr);
                        }
                    }
                    Op::Beq { target } => {
                        if rs1v == rs2v {
                            take_exit!(target);
                        }
                    }
                    Op::Bne { target } => {
                        if rs1v != rs2v {
                            take_exit!(target);
                        }
                    }
                    Op::Blt { target } => {
                        if (rs1v as i32) < (rs2v as i32) {
                            take_exit!(target);
                        }
                    }
                    Op::Bge { target } => {
                        if (rs1v as i32) >= (rs2v as i32) {
                            take_exit!(target);
                        }
                    }
                    Op::Bltu { target } => {
                        if rs1v < rs2v {
                            take_exit!(target);
                        }
                    }
                    Op::Bgeu { target } => {
                        if rs1v >= rs2v {
                            take_exit!(target);
                        }
                    }
                    // Jumps always redirect the PC.
                    Op::Jal { link, target } => {
                        // Unfollowed jump: always the last trace element.
                        wr!(d, link);
                        ctrl_next = target;
                        cycles += pipe.retire(d, true);
                        continue;
                    }
                    Op::JalFollowed { link } => {
                        // Followed jump: the next trace element is the
                        // target instruction; only link and pay the flush.
                        wr!(d, link);
                        cycles += pipe.retire(d, true);
                        continue;
                    }
                    Op::Jalr { link, offset } => {
                        let target = rs1v.wrapping_add(offset) & !1;
                        wr!(d, link);
                        ctrl_next = target;
                        cycles += pipe.retire(d, true);
                        continue;
                    }
                    Op::Halt => {
                        cpu.halted = true;
                    }
                }
                cycles += pipe.retire(d, false);
            }
            // Resume offsets apply to exactly one pass; the handlers below
            // account whole prefixes from 0 by convention.
            start = 0;

            if let Some((i, addr)) = mem_fault {
                // The faulting instruction counts as issued (it was traced
                // and counted before the fault in the reference
                // interpreter) but consumes no cycles, and the PC stays on
                // it. The memory model charges only the retired prefix —
                // a faulting access never reaches the SRAM port.
                charge_mem!(block, slot, i, false);
                executed += i as u64 + 1;
                for d in &block.instrs[..=i] {
                    cpu.trace.record(d.mnemonic());
                }
                let pc = block.instrs[i].pc;
                cpu.pc = pc;
                fault = Some(SimError::BadMemoryAccess { pc, addr });
                break 'dispatch;
            }

            if let Some((i, ordinal)) = side_exit {
                executed += i as u64 + 1;
                cpu.block_exit_counts[slot][ordinal as usize] += 1;
                // The taken branch ending the prefix is itself a
                // prefetch-buffer miss.
                charge_mem!(block, slot, i + 1, true);
                // Self-loop fast path: the exit jumped back to this trace's
                // entry, so re-enter without another dispatch. The re-entry
                // is a fresh trace execution: re-arm the fused loop and
                // restart the memory-model charge range.
                if ctrl_next == entry && executed < max_instructions && !cpu.halted {
                    fused_armed = active_fused.is_some();
                    mem_base = 0;
                    continue;
                }
                cpu.pc = ctrl_next;
                continue 'dispatch;
            }

            // The pass paused at the head of the recognised loop: execute
            // the whole loop as one host loop and bulk-charge every cost
            // stream. The fused executor advances registers and memory
            // for `iters` iterations; taken back-edges (`taken`) are
            // accounted directly here — instret, per-mnemonic trace,
            // per-block attribution, pipeline and memory-model costs —
            // while the final fall-through iteration only has its
            // *cycles* charged here: its instret/trace/memory accounting
            // flows through the ordinary segment-convention handlers when
            // the pass resumes past the back edge. A `None` from
            // `execute` (an access would leave data memory, or no budget
            // for even one iteration) falls back to the per-instruction
            // path, which reproduces the exact fault or timeout.
            if stop < n {
                fused_armed = false;
                let f = active_fused.expect("paused only at a fused loop");
                // The convolution nest runs whole kernel-x iterations and
                // bulk-charges each one's precomputed path costs. Stopping
                // is always at an iteration boundary with the head's
                // budget share (`f.start` instructions) reserved, so the
                // per-instruction pass resumed at the head reproduces the
                // final guard exit, a mid-iteration timeout or a faulting
                // access exactly.
                if let FusedDetail::ConvNest(nd) = &f.detail {
                    let budget = (max_instructions - executed).saturating_sub(f.start as u64);
                    let out = f.execute_nest(&mut cpu.regs, &mut cpu.mem, budget);
                    let iters = out.iters();
                    if iters > 0 {
                        let mut instret = 0;
                        let mut arch_cycles = 0;
                        // Every path starts at the `li`, which reads no
                        // pending load, and ends in a control transfer.
                        for (cost, &times) in nd.paths.iter().zip(&out.counts) {
                            instret += cost.instret * times;
                            arch_cycles += pipe.repeat(cost, times);
                        }
                        cycles += arch_cycles;
                        executed += instret;
                        if let Some(cfg) = &maupiti {
                            // Arch order: the setup segment before the
                            // nest head, then the iterations. The exit
                            // of the pass resumed at the head charges
                            // over [mem_base, ·).
                            charge_mem!(block, slot, f.start, false);
                            let mstall = out.charge_mem(
                                nd,
                                &block.instrs[f.start..],
                                cfg,
                                &mut mem_state,
                                &mut mem_stats,
                            );
                            cycles += mstall;
                            cpu.block_mem_stall_counts[slot] += mstall;
                            mem_base = f.start;
                        }
                        cpu.block_instr_counts[slot] += instret;
                        cpu.block_exec_counts[slot] += iters;
                        for (bulk, n) in cpu.block_fused_bulk[slot].nest.iter_mut().zip(out.counts)
                        {
                            *bulk += n;
                        }
                        cpu.block_fused_entries[slot] += 1;
                        cpu.block_fused_iters[slot] += iters;
                        cpu.block_fused_cycles[slot] += arch_cycles;
                        cpu.block_fused_kind[slot] = Some(f.kind);
                    }
                    start = f.start;
                    continue;
                }
                let avail = (max_instructions - executed).saturating_sub(f.start as u64);
                let max_iters = avail / f.body_len as u64;
                let mut resume = f.start;
                if max_iters > 0 {
                    if let Some(out) = f.execute(&mut cpu.regs, &mut cpu.mem, max_iters) {
                        let taken = if out.fell_through {
                            out.iters - 1
                        } else {
                            out.iters
                        };
                        // The first iteration meets the live hazard state
                        // and the last one may fall through, so both go
                        // through the timing rule instruction by
                        // instruction. Every iteration in between follows
                        // a taken back edge, which leaves no load pending:
                        // exactly what the precomputed `f.iter` assumes.
                        let body = &block.instrs[f.start..f.start + f.body_len];
                        let time_iteration = |pipe: &mut Pipeline, back_edge| {
                            body.iter()
                                .enumerate()
                                .map(|(j, d)| pipe.retire(d, back_edge && j + 1 == body.len()))
                                .sum::<u64>()
                        };
                        let mut arch_cycles = time_iteration(&mut pipe, taken > 0);
                        if out.iters > 1 {
                            arch_cycles += pipe.repeat(&f.iter, out.iters - 2)
                                + time_iteration(&mut pipe, !out.fell_through);
                        }
                        cycles += arch_cycles;
                        if taken > 0 {
                            executed += taken * f.body_len as u64;
                            cpu.block_instr_counts[slot] += taken * f.body_len as u64;
                            if f.start == 0 {
                                // Whole-trace self-loop: every taken back
                                // edge is one completed execution of this
                                // trace, exactly as the unfused engine
                                // counts them.
                                cpu.block_exec_counts[slot] += taken;
                            }
                            // Per-mnemonic trace counts fold lazily in
                            // `fold_exec_counts`, keeping the map out of
                            // the hot loop.
                            cpu.block_fused_bulk[slot].plain += taken;
                            if let Some(cfg) = &maupiti {
                                // Arch order: the setup segment before the
                                // loop head, then the taken iterations. The
                                // final iteration and the tail are charged
                                // by the eventual exit over [mem_base, ·).
                                charge_mem!(block, slot, f.start, false);
                                let mstall = mem_state.charge_loop(
                                    cfg,
                                    &block.mem_prefix,
                                    &block.redirects,
                                    f.start,
                                    f.start + f.body_len,
                                    taken,
                                    &mut mem_stats,
                                );
                                cycles += mstall;
                                cpu.block_mem_stall_counts[slot] += mstall;
                            }
                            mem_base = f.start;
                        }
                        cpu.block_fused_entries[slot] += 1;
                        cpu.block_fused_iters[slot] += out.iters;
                        cpu.block_fused_cycles[slot] += arch_cycles;
                        cpu.block_fused_kind[slot] = Some(f.kind);
                        if out.fell_through {
                            resume = f.start + f.body_len;
                        }
                    }
                }
                start = resume;
                continue;
            }

            if !full {
                // Budget-capped mid-trace: the next dispatch iteration
                // raises the timeout. The retired prefix is traced directly
                // (it is not a counted exit).
                charge_mem!(block, slot, n, false);
                executed += n as u64;
                for d in &block.instrs[..n] {
                    cpu.trace.record(d.mnemonic());
                }
                cpu.pc = block.instrs[n].pc;
                continue 'dispatch;
            }

            executed += len as u64;
            cpu.block_exit_counts[slot][end_exit] += 1;
            // End-exit redirects (terminator JAL/JALR) sit in the block's
            // `redirects` summary, so no explicit exit redirect here.
            charge_mem!(block, slot, len, false);
            if ctrl_next == entry
                && executed < max_instructions
                && !cpu.halted
                && block.end == BlockEnd::Terminator
            {
                // Terminator self-loop re-entry: a fresh trace execution,
                // so re-arm the fused loop and restart the charge range.
                fused_armed = active_fused.is_some();
                mem_base = 0;
                continue;
            }
            cpu.pc = ctrl_next;
            match block.end {
                BlockEnd::Terminator | BlockEnd::Fallthrough => {}
                // Deferred faults: execution reached the end of the
                // decodable region, so raise exactly what the reference
                // interpreter would raise at this PC (which `ctrl_next`
                // already points at).
                BlockEnd::BadFetch { pc } => {
                    fault = Some(SimError::BadFetch { pc });
                    break 'dispatch;
                }
                BlockEnd::Illegal { pc, word } => {
                    fault = Some(SimError::IllegalInstruction { pc, word });
                    break 'dispatch;
                }
            }
            continue 'dispatch;
        }
    }

    cpu.instret += executed;
    cpu.cycles += cycles;
    pipe.stats.instructions += executed;
    cpu.pipeline = pipe;
    cpu.mem_state = mem_state;
    cpu.mem_stats.accumulate(&mem_stats);
    match fault {
        None => Ok(()),
        Some(error) => Err(error),
    }
}

/// Folds per-slot, per-exit execution counts into the trace and the
/// persistent per-block profiling totals behind [`Cpu::hottest_blocks`].
fn fold_exec_counts(cpu: &mut Cpu) {
    while let Some(slot) = cpu.touched_slots.pop() {
        cpu.touched_flags[slot] = false;
        let block = cpu
            .cache
            .cached(slot)
            .expect("an executed slot is in the local snapshot");
        let mut execs = 0u64;
        let mut instrs = 0u64;
        for (exit, count) in block
            .exits
            .iter()
            .zip(cpu.block_exit_counts[slot].iter_mut())
        {
            if *count > 0 {
                execs += *count;
                instrs += *count * exit.retired as u64;
                for &(mnemonic, per_exec) in &exit.counts {
                    cpu.trace.record_many(mnemonic, per_exec * *count);
                }
                *count = 0;
            }
        }
        cpu.block_exec_counts[slot] += execs;
        cpu.block_instr_counts[slot] += instrs;
        let bulk = std::mem::take(&mut cpu.block_fused_bulk[slot]);
        if bulk.plain > 0 {
            let f = block
                .fused
                .as_ref()
                .expect("bulk iterations imply a fused loop");
            for d in &block.instrs[f.start..f.start + f.body_len] {
                cpu.trace.record_many(d.mnemonic(), bulk.plain);
            }
        }
        if bulk.nest.iter().any(|&n| n > 0) {
            let f = block.fused.as_ref().expect("nest counts imply a nest");
            let s = f.start;
            for (j, d) in block.instrs[s..s + NEST_LEN].iter().enumerate() {
                // Per-position multiset of the executed paths.
                let count: u64 = NEST_PATHS
                    .iter()
                    .zip(bulk.nest)
                    .filter(|(path, _)| path.retires(j))
                    .map(|(_, n)| n)
                    .sum();
                if count > 0 {
                    cpu.trace.record_many(d.mnemonic(), count);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BranchOp, Instr, LoadOp, StoreOp};
    use crate::memory::DMEM_BASE;
    use crate::reg;

    fn cpu_pair(program: &[Instr]) -> (Cpu, Cpu) {
        let mut simple = Cpu::new_default();
        simple.load_program(program).unwrap();
        let mut cached = Cpu::new_default();
        cached.set_exec_mode(ExecMode::BlockCached);
        cached.load_program(program).unwrap();
        (simple, cached)
    }

    /// Architectural state plus every timing counter: the engines differ
    /// only in speed.
    fn assert_same_architectural_state(simple: &Cpu, cached: &Cpu) {
        for r in 0..32 {
            assert_eq!(simple.reg(r), cached.reg(r), "register x{r} diverged");
        }
        assert_eq!(simple.pc, cached.pc, "pc diverged");
        assert_eq!(simple.instret, cached.instret, "instret diverged");
        assert_eq!(simple.trace, cached.trace, "trace diverged");
        assert_eq!(simple.halted(), cached.halted(), "halt state diverged");
        assert_eq!(simple.cycles, cached.cycles, "cycles diverged");
        assert_eq!(
            simple.pipeline_stats(),
            cached.pipeline_stats(),
            "pipeline stats diverged"
        );
        assert_eq!(simple.mem_stats(), cached.mem_stats(), "mem stats diverged");
    }

    #[test]
    fn loop_program_matches_simple_mode_exactly() {
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 50,
            },
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 0,
            },
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
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        let rs = simple.run(100_000).unwrap();
        let rc = cached.run(100_000).unwrap();
        assert_eq!(rs.instructions, rc.instructions);
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(cached.reg(reg::A0), 50 * 51 / 2);
    }

    #[test]
    fn every_alu_op_matches_simple_mode() {
        let mut program = vec![
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: -1234,
            },
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::ZERO,
                imm: 77,
            },
            Instr::Lui {
                rd: reg::A2,
                imm: 0x12345,
            },
            Instr::Auipc {
                rd: reg::A3,
                imm: 0x700,
            },
        ];
        for (rd, instr) in [
            Instr::Slti {
                rd: 0,
                rs1: reg::A0,
                imm: 5,
            },
            Instr::Sltiu {
                rd: 0,
                rs1: reg::A0,
                imm: 5,
            },
            Instr::Xori {
                rd: 0,
                rs1: reg::A0,
                imm: -3,
            },
            Instr::Ori {
                rd: 0,
                rs1: reg::A0,
                imm: 0x55,
            },
            Instr::Andi {
                rd: 0,
                rs1: reg::A0,
                imm: 0x3C,
            },
            Instr::Slli {
                rd: 0,
                rs1: reg::A0,
                shamt: 3,
            },
            Instr::Srli {
                rd: 0,
                rs1: reg::A0,
                shamt: 5,
            },
            Instr::Srai {
                rd: 0,
                rs1: reg::A0,
                shamt: 5,
            },
            Instr::Add {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sub {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sll {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Slt {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sltu {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Xor {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Srl {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sra {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Or {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::And {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Mul {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Mulh {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Mulhsu {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Mulhu {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Div {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Divu {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Rem {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Remu {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Div {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::ZERO,
            },
            Instr::Rem {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::ZERO,
            },
            Instr::Sdotp8 {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
            Instr::Sdotp4 {
                rd: 0,
                rs1: reg::A0,
                rs2: reg::A1,
            },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, instr)| ((8 + (i % 20)) as u8, instr))
        {
            // Rotate destinations through s/t registers so results feed
            // later inputs and divergence cannot cancel out.
            let fixed = match instr {
                Instr::Slti { rs1, imm, .. } => Instr::Slti { rd, rs1, imm },
                Instr::Sltiu { rs1, imm, .. } => Instr::Sltiu { rd, rs1, imm },
                Instr::Xori { rs1, imm, .. } => Instr::Xori { rd, rs1, imm },
                Instr::Ori { rs1, imm, .. } => Instr::Ori { rd, rs1, imm },
                Instr::Andi { rs1, imm, .. } => Instr::Andi { rd, rs1, imm },
                Instr::Slli { rs1, shamt, .. } => Instr::Slli { rd, rs1, shamt },
                Instr::Srli { rs1, shamt, .. } => Instr::Srli { rd, rs1, shamt },
                Instr::Srai { rs1, shamt, .. } => Instr::Srai { rd, rs1, shamt },
                Instr::Add { rs1, rs2, .. } => Instr::Add { rd, rs1, rs2 },
                Instr::Sub { rs1, rs2, .. } => Instr::Sub { rd, rs1, rs2 },
                Instr::Sll { rs1, rs2, .. } => Instr::Sll { rd, rs1, rs2 },
                Instr::Slt { rs1, rs2, .. } => Instr::Slt { rd, rs1, rs2 },
                Instr::Sltu { rs1, rs2, .. } => Instr::Sltu { rd, rs1, rs2 },
                Instr::Xor { rs1, rs2, .. } => Instr::Xor { rd, rs1, rs2 },
                Instr::Srl { rs1, rs2, .. } => Instr::Srl { rd, rs1, rs2 },
                Instr::Sra { rs1, rs2, .. } => Instr::Sra { rd, rs1, rs2 },
                Instr::Or { rs1, rs2, .. } => Instr::Or { rd, rs1, rs2 },
                Instr::And { rs1, rs2, .. } => Instr::And { rd, rs1, rs2 },
                Instr::Mul { rs1, rs2, .. } => Instr::Mul { rd, rs1, rs2 },
                Instr::Mulh { rs1, rs2, .. } => Instr::Mulh { rd, rs1, rs2 },
                Instr::Mulhsu { rs1, rs2, .. } => Instr::Mulhsu { rd, rs1, rs2 },
                Instr::Mulhu { rs1, rs2, .. } => Instr::Mulhu { rd, rs1, rs2 },
                Instr::Div { rs1, rs2, .. } => Instr::Div { rd, rs1, rs2 },
                Instr::Divu { rs1, rs2, .. } => Instr::Divu { rd, rs1, rs2 },
                Instr::Rem { rs1, rs2, .. } => Instr::Rem { rd, rs1, rs2 },
                Instr::Remu { rs1, rs2, .. } => Instr::Remu { rd, rs1, rs2 },
                Instr::Sdotp8 { rs1, rs2, .. } => Instr::Sdotp8 { rd, rs1, rs2 },
                Instr::Sdotp4 { rs1, rs2, .. } => Instr::Sdotp4 { rd, rs1, rs2 },
                other => other,
            };
            program.push(fixed);
        }
        program.push(Instr::Ebreak);
        let (mut simple, mut cached) = cpu_pair(&program);
        simple.run(1_000).unwrap();
        cached.run(1_000).unwrap();
        assert_same_architectural_state(&simple, &cached);
    }

    #[test]
    fn loads_and_stores_of_every_width_match_simple_mode() {
        let program = [
            Instr::Lui {
                rd: reg::A0,
                imm: (DMEM_BASE >> 12) as i32,
            },
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::ZERO,
                imm: -259,
            },
            Instr::Store {
                op: StoreOp::Sw,
                rs1: reg::A0,
                rs2: reg::A1,
                offset: 0,
            },
            Instr::Store {
                op: StoreOp::Sh,
                rs1: reg::A0,
                rs2: reg::A1,
                offset: 4,
            },
            Instr::Store {
                op: StoreOp::Sb,
                rs1: reg::A0,
                rs2: reg::A1,
                offset: 6,
            },
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A2,
                rs1: reg::A0,
                offset: 0,
            },
            Instr::Load {
                op: LoadOp::Lh,
                rd: reg::A3,
                rs1: reg::A0,
                offset: 4,
            },
            Instr::Load {
                op: LoadOp::Lhu,
                rd: reg::A4,
                rs1: reg::A0,
                offset: 4,
            },
            Instr::Load {
                op: LoadOp::Lb,
                rd: reg::A5,
                rs1: reg::A0,
                offset: 6,
            },
            Instr::Load {
                op: LoadOp::Lbu,
                rd: reg::A6,
                rs1: reg::A0,
                offset: 6,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        simple.run(100).unwrap();
        cached.run(100).unwrap();
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(cached.reg(reg::A2) as i32, -259);
        assert_eq!(cached.reg(reg::A5) as i32, -3); // low byte of -259
    }

    #[test]
    fn memory_faults_match_simple_mode() {
        let program = [
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 5,
            },
            Instr::Store {
                op: StoreOp::Sw,
                rs1: reg::ZERO,
                rs2: reg::A0,
                offset: 0,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        let es = simple.run(10).unwrap_err();
        let ec = cached.run(10).unwrap_err();
        assert_eq!(es, ec);
        assert_same_architectural_state(&simple, &cached);
    }

    #[test]
    fn illegal_instruction_faults_match_simple_mode() {
        let mut bytes = Vec::new();
        for i in [
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 1,
            },
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::ZERO,
                imm: 2,
            },
        ] {
            bytes.extend_from_slice(&i.encode().to_le_bytes());
        }
        bytes.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        let mut simple = Cpu::new_default();
        simple.load_program_bytes(&bytes).unwrap();
        let mut cached = Cpu::new_default();
        cached.set_exec_mode(ExecMode::BlockCached);
        cached.load_program_bytes(&bytes).unwrap();
        let es = simple.run(10).unwrap_err();
        let ec = cached.run(10).unwrap_err();
        assert_eq!(es, ec);
        assert_same_architectural_state(&simple, &cached);
    }

    #[test]
    fn timeouts_match_simple_mode() {
        let program = [Instr::Jal {
            rd: reg::ZERO,
            offset: 0,
        }];
        let (mut simple, mut cached) = cpu_pair(&program);
        let es = simple.run(100).unwrap_err();
        let ec = cached.run(100).unwrap_err();
        assert_eq!(es, ec);
        assert_same_architectural_state(&simple, &cached);
    }

    #[test]
    fn mid_block_timeout_counts_instructions_exactly() {
        // A long straight-line block; the budget cuts it mid-way.
        let mut program = vec![];
        for _ in 0..20 {
            program.push(Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: 1,
            });
        }
        program.push(Instr::Ebreak);
        let (mut simple, mut cached) = cpu_pair(&program);
        let es = simple.run(7).unwrap_err();
        let ec = cached.run(7).unwrap_err();
        assert_eq!(es, ec);
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(cached.reg(reg::A0), 7);
    }

    #[test]
    fn jalr_with_rd_equal_rs1_matches_simple_mode() {
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 12,
            },
            Instr::Jalr {
                rd: reg::T0,
                rs1: reg::T0,
                offset: 0,
            },
            Instr::Ebreak, // skipped
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        simple.run(10).unwrap();
        cached.run(10).unwrap();
        assert_same_architectural_state(&simple, &cached);
        // The target (old t0 = 12) was read before the link overwrote t0.
        assert_eq!(cached.reg(reg::T0), 8);
        assert_eq!(cached.pc, 16, "jumped to old t0 = 12, then past ebreak");
    }

    #[test]
    fn load_use_hazards_stall_both_engines_alike() {
        let program = [
            Instr::Lui {
                rd: reg::A0,
                imm: (DMEM_BASE >> 12) as i32,
            },
            Instr::Store {
                op: StoreOp::Sw,
                rs1: reg::A0,
                rs2: reg::A0,
                offset: 0,
            },
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A1,
                rs1: reg::A0,
                offset: 0,
            },
            // Immediately consumes the loaded value: one interlock stall.
            Instr::Add {
                rd: reg::A2,
                rs1: reg::A1,
                rs2: reg::ZERO,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        let rs = simple.run(10).unwrap();
        let rc = cached.run(10).unwrap();
        assert_eq!(rs, rc);
        // lui(1) + sw(2) + lw(2) + add(1) + the load-use stall + ebreak(1)
        assert_eq!(rc.cycles, 8);
        assert_eq!(cached.pipeline_stats().load_use_stalls, 1);
        assert_same_architectural_state(&simple, &cached);
    }

    #[test]
    fn faulting_instruction_leaves_no_pipeline_residue() {
        // lw a1 <- valid; lw a2 <- *a1 where a1 holds an invalid address.
        // The second load both consumes the first load's destination (a
        // would-be stall) and faults; a faulting instruction must charge
        // no cycles, record no stall and leave the hazard state untouched.
        let program = [
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
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A2,
                rs1: reg::A1,
                offset: 0,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        let es = simple.run(10).unwrap_err();
        let ec = cached.run(10).unwrap_err();
        assert_eq!(es, ec);
        assert_same_architectural_state(&simple, &cached);
        // lui(1) + sw(2) + lw(2): the faulting load charges nothing.
        assert_eq!(cached.cycles, 5, "faulting stall must not be charged");
        let stats = cached.pipeline_stats();
        assert_eq!(
            stats.load_use_stalls, 0,
            "unretired stall must not be counted"
        );
    }

    #[test]
    fn cache_is_reused_across_clones_and_invalidated_on_load() {
        let program = [
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 1,
            },
            Instr::Ebreak,
        ];
        let mut cpu = Cpu::new_default();
        cpu.set_exec_mode(ExecMode::BlockCached);
        cpu.load_program(&program).unwrap();
        let mut warm = cpu.clone();
        warm.run(10).unwrap();
        // The clone warmed the shared cache.
        assert_eq!(cpu.cached_blocks(), 1);
        // Loading a new image detaches and clears this CPU's cache only.
        cpu.load_program(&[Instr::Ebreak]).unwrap();
        assert_eq!(cpu.cached_blocks(), 0);
        assert_eq!(warm.cached_blocks(), 1);
    }

    #[test]
    fn run_can_resume_after_timeout() {
        let mut program = vec![];
        for _ in 0..10 {
            program.push(Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: 1,
            });
        }
        program.push(Instr::Ebreak);
        let mut cpu = Cpu::new_default();
        cpu.set_exec_mode(ExecMode::BlockCached);
        cpu.load_program(&program).unwrap();
        assert!(cpu.run(4).is_err());
        let summary = cpu.run(100).unwrap();
        assert_eq!(cpu.reg(reg::A0), 10);
        assert_eq!(summary.instructions, 7); // 6 remaining addis + ebreak
    }

    #[test]
    fn cpu_is_send_and_sync() {
        // Compile-time property: parallel frame evaluation moves warmed
        // CPU clones across threads. The shared block cache must therefore
        // never reintroduce `Rc`/`RefCell`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Cpu>();
        assert_send_sync::<BlockCache>();
        assert_send_sync::<Block>();
    }

    #[test]
    fn warmed_cpu_clone_runs_on_another_thread_with_identical_results() {
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 30,
            },
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
        ];
        let mut base = Cpu::new_default().with_exec_mode(ExecMode::BlockCached);
        base.load_program(&program).unwrap();
        // Warm the shared cache on this thread.
        let mut warm = base.clone();
        warm.run(100_000).unwrap();
        assert!(base.cached_blocks() > 0, "warming published the blocks");
        let results: Vec<Cpu> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let mut cpu = base.clone();
                    s.spawn(move || {
                        cpu.run(100_000).unwrap();
                        cpu
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for cpu in &results {
            assert_same_architectural_state(&warm, cpu);
        }
    }

    #[test]
    fn nested_loops_across_traces_match_simple_mode_exactly() {
        // Nested loops with multiple traces, so side exits leave for
        // distinct blocks.
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 15,
            },
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::ZERO,
                imm: 9,
            },
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: 1,
            },
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::T1,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T1,
                rs2: reg::ZERO,
                offset: -8,
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
                offset: -20,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        let rs = simple.run(100_000).unwrap();
        let rc = cached.run(100_000).unwrap();
        assert_eq!(rs, rc, "summaries must be identical");
        assert_same_architectural_state(&simple, &cached);
        assert!(cached.cached_blocks() >= 2, "distinct traces expected");
    }

    #[test]
    fn fallthrough_and_static_jal_end_exits_match_simple_mode() {
        // One program exercising both static end-exit kinds:
        //  * a straight-line run longer than MAX_BLOCK_LEN, so the first
        //    trace ends with BlockEnd::Fallthrough and continues in a
        //    second trace;
        //  * a backward JAL into the trace's own entry, which ends the
        //    trace with a static unfollowed JAL back to the loop head.
        use crate::block::MAX_BLOCK_LEN;
        let body = MAX_BLOCK_LEN + 40; // splits into two traces
        let mut program = vec![Instr::Addi {
            rd: reg::T0,
            rs1: reg::ZERO,
            imm: 25,
        }];
        let loop_head = program.len(); // trace entry of the loop
        for _ in 0..body {
            program.push(Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: 1,
            });
        }
        program.push(Instr::Addi {
            rd: reg::T0,
            rs1: reg::T0,
            imm: -1,
        });
        // Loop exit: skip the backward jump once t0 hits zero.
        program.push(Instr::Branch {
            op: BranchOp::Beq,
            rs1: reg::T0,
            rs2: reg::ZERO,
            offset: 8,
        });
        let jal_at = program.len();
        program.push(Instr::Jal {
            rd: reg::ZERO,
            offset: ((loop_head as i64 - jal_at as i64) * 4) as i32,
        });
        program.push(Instr::Ebreak);

        let (mut simple, mut cached) = cpu_pair(&program);
        let budget = 200_000;
        let rs = simple.run(budget).unwrap();
        let rc = cached.run(budget).unwrap();
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(rs, rc);
        assert_eq!(cached.reg(reg::A0), 25 * body as u32);
        // The straight-line body really did split: more than one trace.
        assert!(cached.cached_blocks() >= 2, "fallthrough split expected");
    }

    #[test]
    fn static_jal_end_exit_chains_between_distinct_traces() {
        // The entry trace runs into the loop and ends with an *unfollowed*
        // static JAL (its target is already inside the trace), whose end
        // exit leaves for the loop-head trace — a distinct block, so the
        // self-loop fast path does not take it. Results must be
        // bit-identical to the reference interpreter.
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 25,
            },
            // loop head (idx 1)
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: 1,
            },
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::T0,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Beq,
                rs1: reg::T0,
                rs2: reg::ZERO,
                offset: 12,
            },
            Instr::Addi {
                rd: reg::A1,
                rs1: reg::A1,
                imm: 1,
            },
            // idx 5: backward jump to the loop head (idx 1).
            Instr::Jal {
                rd: reg::ZERO,
                offset: -16,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        let rs = simple.run(10_000).unwrap();
        let rc = cached.run(10_000).unwrap();
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(rs, rc);
        assert_eq!(cached.reg(reg::A0), 25);
        assert_eq!(cached.reg(reg::A1), 24);
        assert!(cached.cached_blocks() >= 2, "two distinct traces expected");
    }

    #[test]
    fn hottest_blocks_ranks_the_inner_loop_first() {
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 20,
            },
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::ZERO,
                imm: 10,
            },
            // inner loop body at +8
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::T1,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T1,
                rs2: reg::ZERO,
                offset: -4,
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
                offset: -16,
            },
            Instr::Ebreak,
        ];
        let mut cpu = Cpu::new_default().with_exec_mode(ExecMode::BlockCached);
        cpu.load_program(&program).unwrap();
        cpu.run(100_000).unwrap();
        let hot = cpu.hottest_blocks(10);
        assert!(!hot.is_empty());
        let total: u64 = hot.iter().map(|h| h.instructions).sum();
        assert_eq!(total, cpu.instret, "profile accounts every instruction");
        assert!(
            hot[0].executions >= 20,
            "the hottest trace is executed once per outer iteration at least"
        );
        for pair in hot.windows(2) {
            assert!(pair[0].instructions >= pair[1].instructions);
        }
        // The profile resets with the program image.
        cpu.load_program(&[Instr::Ebreak]).unwrap();
        assert!(cpu.hottest_blocks(10).is_empty());
    }

    #[test]
    fn branch_heavy_program_traces_match_simple_mode() {
        // Nested loops: inner blocks execute thousands of times, so the
        // fold-based trace accounting is exercised hard.
        let program = [
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 40,
            }, // outer
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::ZERO,
                imm: 25,
            }, // inner
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: 1,
            },
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::T1,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T1,
                rs2: reg::ZERO,
                offset: -8,
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
                offset: -20,
            },
            Instr::Ebreak,
        ];
        let (mut simple, mut cached) = cpu_pair(&program);
        simple.run(100_000).unwrap();
        cached.run(100_000).unwrap();
        assert_same_architectural_state(&simple, &cached);
        assert_eq!(cached.reg(reg::A0), 40 * 25);
    }

    // ---- macro-op fusion differential tests -------------------------

    use crate::mem_model::MemoryModel;

    /// Runs `program` on three CPUs — the Simple reference, BlockCached
    /// with fusion off and BlockCached with fusion on — under the same
    /// instruction budget and memory model, and asserts that the fused
    /// engine is bit-identical to both: architectural state and instret
    /// against Simple, plus cycles, stall breakdowns, memory-model stats
    /// and the full data image against the unfused block engine. Returns
    /// `(unfused, fused)` for extra per-test assertions.
    fn assert_fusion_parity(
        program: &[Instr],
        budget: u64,
        model: MemoryModel,
        setup: &dyn Fn(&mut Cpu),
    ) -> (Cpu, Cpu) {
        let mut simple = Cpu::new_default();
        simple.set_memory_model(model);
        simple.load_program(program).unwrap();
        setup(&mut simple);
        let rs = simple.run(budget);

        let run_cached = |fusion: bool| {
            let mut cpu = Cpu::new_default();
            cpu.set_exec_mode(ExecMode::BlockCached);
            cpu.set_macro_fusion(fusion);
            cpu.set_memory_model(model);
            cpu.load_program(program).unwrap();
            setup(&mut cpu);
            let r = cpu.run(budget);
            (cpu, r)
        };
        let (unfused, ru) = run_cached(false);
        let (fused, rf) = run_cached(true);

        assert_eq!(ru, rf, "run outcome diverged fused vs unfused");
        assert_eq!(
            rs.as_ref().err(),
            rf.as_ref().err(),
            "fault behaviour diverged fused vs Simple"
        );
        if let (Ok(s), Ok(f)) = (&rs, &rf) {
            assert_eq!(s.instructions, f.instructions);
        }
        assert_same_architectural_state(&simple, &fused);
        for r in 0..32 {
            assert_eq!(unfused.reg(r), fused.reg(r), "register x{r} diverged");
        }
        assert_eq!(unfused.pc, fused.pc, "pc diverged");
        assert_eq!(unfused.instret, fused.instret, "instret diverged");
        assert_eq!(unfused.cycles, fused.cycles, "cycles diverged");
        assert_eq!(unfused.trace, fused.trace, "trace diverged");
        assert_eq!(unfused.halted(), fused.halted());
        assert_eq!(
            unfused.pipeline.stats, fused.pipeline.stats,
            "pipeline stall breakdown diverged"
        );
        assert_eq!(unfused.mem_stats, fused.mem_stats, "memory stats diverged");
        let len = fused.mem.dmem_size();
        assert_eq!(
            simple.mem.read_dmem(DMEM_BASE, len),
            fused.mem.read_dmem(DMEM_BASE, len),
            "data memory diverged fused vs Simple"
        );
        assert_eq!(
            unfused.mem.read_dmem(DMEM_BASE, len),
            fused.mem.read_dmem(DMEM_BASE, len),
            "data memory diverged fused vs unfused"
        );
        (unfused, fused)
    }

    /// `lui rd, 0x100` materialises `DMEM_BASE`; adding `extra` offsets
    /// into the data image.
    fn li_dmem(rd: u8, extra: i32) -> [Instr; 2] {
        [
            Instr::Lui { rd, imm: 0x100 },
            Instr::Addi {
                rd,
                rs1: rd,
                imm: extra,
            },
        ]
    }

    /// The SDOTP channel-loop idiom emitted by the kernel code
    /// generator, preceded by pointer/counter setup.
    fn mac_program(four_bit: bool, count: i32) -> Vec<Instr> {
        let sdotp = if four_bit {
            Instr::Sdotp4 {
                rd: reg::S7,
                rs1: reg::T4,
                rs2: reg::T5,
            }
        } else {
            Instr::Sdotp8 {
                rd: reg::S7,
                rs1: reg::T4,
                rs2: reg::T5,
            }
        };
        let mut p = Vec::new();
        p.extend(li_dmem(reg::T1, 0));
        p.extend(li_dmem(reg::T2, 512));
        p.push(Instr::Addi {
            rd: reg::T3,
            rs1: reg::ZERO,
            imm: count,
        });
        p.push(Instr::Addi {
            rd: reg::S7,
            rs1: reg::ZERO,
            imm: 7,
        });
        p.extend([
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::T4,
                rs1: reg::T1,
                offset: 0,
            },
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::T5,
                rs1: reg::T2,
                offset: 0,
            },
            sdotp,
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::T1,
                imm: 4,
            },
            Instr::Addi {
                rd: reg::T2,
                rs1: reg::T2,
                imm: 4,
            },
            Instr::Addi {
                rd: reg::T3,
                rs1: reg::T3,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T3,
                rs2: reg::ZERO,
                offset: -24,
            },
            Instr::Ebreak,
        ]);
        p
    }

    fn fill_dmem(cpu: &mut Cpu) {
        let bytes: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(37) >> 2) as u8)
            .collect();
        cpu.mem.write_dmem(DMEM_BASE, &bytes);
    }

    #[test]
    fn fused_mac_loops_match_unfused_and_simple_bit_for_bit() {
        for four_bit in [false, true] {
            for model in [MemoryModel::Flat, MemoryModel::maupiti()] {
                let (unfused, fused) =
                    assert_fusion_parity(&mac_program(four_bit, 60), 100_000, model, &fill_dmem);
                assert_eq!(unfused.fusion_profile(), &[]);
                let profile = fused.fusion_profile();
                let want = if four_bit { "mac_sdotp4" } else { "mac_sdotp8" };
                assert_eq!(profile.len(), 1);
                assert_eq!(profile[0].0, want);
                // The loop body sits behind the setup code inside the
                // prologue trace; mid-trace recognition fuses it there,
                // so every iteration executes through the fused path.
                assert_eq!(profile[0].2, 60);
            }
        }
    }

    #[test]
    fn fused_memset_variants_match_bit_for_bit() {
        for (store, stride, count) in [
            (StoreOp::Sb, 1, 100),
            (StoreOp::Sh, 2, 50),
            (StoreOp::Sw, 4, 25),
            (StoreOp::Sb, 5, 30),  // strided fill
            (StoreOp::Sw, -4, 20), // descending fill
        ] {
            let mut p = Vec::new();
            p.extend(li_dmem(reg::T1, 256));
            p.push(Instr::Addi {
                rd: reg::T3,
                rs1: reg::ZERO,
                imm: count,
            });
            p.push(Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 0x5A,
            });
            p.extend([
                Instr::Store {
                    op: store,
                    rs1: reg::T1,
                    rs2: reg::A0,
                    offset: 0,
                },
                Instr::Addi {
                    rd: reg::T1,
                    rs1: reg::T1,
                    imm: stride,
                },
                Instr::Addi {
                    rd: reg::T3,
                    rs1: reg::T3,
                    imm: -1,
                },
                Instr::Branch {
                    op: BranchOp::Bne,
                    rs1: reg::T3,
                    rs2: reg::ZERO,
                    offset: -12,
                },
                Instr::Ebreak,
            ]);
            let (_, fused) = assert_fusion_parity(&p, 100_000, MemoryModel::Flat, &fill_dmem);
            assert_eq!(fused.fusion_profile()[0].0, "memset");
        }
    }

    fn copy_program(load: LoadOp, store: StoreOp, ss: i32, ds: i32, count: i32) -> Vec<Instr> {
        let mut p = Vec::new();
        p.extend(li_dmem(reg::T1, 0));
        p.extend(li_dmem(reg::T2, 600));
        p.push(Instr::Addi {
            rd: reg::T3,
            rs1: reg::ZERO,
            imm: count,
        });
        p.extend([
            Instr::Load {
                op: load,
                rd: reg::T4,
                rs1: reg::T1,
                offset: 0,
            },
            Instr::Store {
                op: store,
                rs1: reg::T2,
                rs2: reg::T4,
                offset: 0,
            },
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::T1,
                imm: ss,
            },
            Instr::Addi {
                rd: reg::T2,
                rs1: reg::T2,
                imm: ds,
            },
            Instr::Addi {
                rd: reg::T3,
                rs1: reg::T3,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T3,
                rs2: reg::ZERO,
                offset: -20,
            },
            Instr::Ebreak,
        ]);
        p
    }

    #[test]
    fn fused_copy_variants_match_bit_for_bit() {
        for (load, store, ss, ds, count, kind) in [
            (LoadOp::Lw, StoreOp::Sw, 4, 4, 64, "memcpy"),
            (LoadOp::Lbu, StoreOp::Sb, 1, 1, 200, "memcpy"),
            (LoadOp::Lb, StoreOp::Sb, 9, 1, 40, "strided_copy"), // im2col gather
            (LoadOp::Lh, StoreOp::Sh, 16, 2, 30, "strided_copy"),
            (LoadOp::Lhu, StoreOp::Sw, 2, 4, 30, "strided_copy"), // widening copy
        ] {
            let p = copy_program(load, store, ss, ds, count);
            for model in [MemoryModel::Flat, MemoryModel::maupiti()] {
                let (_, fused) = assert_fusion_parity(&p, 100_000, model, &fill_dmem);
                assert_eq!(fused.fusion_profile()[0].0, kind);
            }
        }
    }

    #[test]
    fn overlapping_fused_copy_matches_bit_for_bit() {
        // dst inside the source stream: element-order semantics matter.
        let p = copy_program(LoadOp::Lbu, StoreOp::Sb, 1, 1, 64);
        let mut p = p;
        p[3] = Instr::Addi {
            rd: reg::T2,
            rs1: reg::T2,
            imm: -597, // dst = src + 3
        };
        assert_fusion_parity(&p, 100_000, MemoryModel::Flat, &fill_dmem);
    }

    #[test]
    fn single_iteration_and_fallthrough_entry_match() {
        // cnt0 == 1: one iteration, back-edge never taken.
        assert_fusion_parity(
            &mac_program(false, 1),
            100_000,
            MemoryModel::Flat,
            &fill_dmem,
        );
        // cnt0 == 2: exactly one taken back-edge.
        assert_fusion_parity(
            &mac_program(false, 2),
            100_000,
            MemoryModel::Flat,
            &fill_dmem,
        );
        // The loop head reads the source pointer reloaded right before
        // it: only the first fused iteration pays that load-use stall.
        let mut p = copy_program(LoadOp::Lw, StoreOp::Sw, 4, 4, 8);
        p.splice(
            5..5,
            [
                Instr::Store {
                    op: StoreOp::Sw,
                    rs1: reg::T2,
                    rs2: reg::T1,
                    offset: 700,
                },
                Instr::Load {
                    op: LoadOp::Lw,
                    rd: reg::T1,
                    rs1: reg::T2,
                    offset: 700,
                },
            ],
        );
        for model in [MemoryModel::Flat, MemoryModel::maupiti()] {
            let (_, fused) = assert_fusion_parity(&p, 100_000, model, &fill_dmem);
            assert_eq!(fused.fusion_profile()[0].0, "memcpy");
            // The entry stall plus one lw->sw stall per iteration.
            assert_eq!(fused.pipeline_stats().load_use_stalls, 1 + 8);
        }
    }

    #[test]
    fn zero_trip_count_wraps_and_times_out_identically() {
        // A do-while loop entered with cnt == 0 runs 2^32 iterations;
        // with a small budget both engines must time out at the same
        // instruction, with identical partial memory effects.
        let mut p = Vec::new();
        p.extend(li_dmem(reg::T1, 0));
        p.push(Instr::Addi {
            rd: reg::T3,
            rs1: reg::ZERO,
            imm: 0,
        });
        p.extend([
            Instr::Store {
                op: StoreOp::Sb,
                rs1: reg::T1,
                rs2: reg::ZERO,
                offset: 0,
            },
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::T1,
                imm: 1,
            },
            Instr::Addi {
                rd: reg::T3,
                rs1: reg::T3,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T3,
                rs2: reg::ZERO,
                offset: -12,
            },
            Instr::Ebreak,
        ]);
        // Budgets hitting the loop at every phase: mid-iteration, on an
        // iteration boundary and right at the back-edge.
        for budget in [100, 101, 102, 103, 104, 4003] {
            assert_fusion_parity(&p, budget, MemoryModel::Flat, &fill_dmem);
        }
    }

    #[test]
    fn budget_expiry_mid_fused_loop_matches() {
        // 60 MAC iterations * 7 instructions after a 6-instruction
        // prologue; sweep budgets across iteration boundaries.
        for budget in [
            6,
            7,
            12,
            13,
            14,
            6 + 7 * 30,
            6 + 7 * 30 + 3,
            6 + 7 * 60,
            6 + 7 * 60 + 1,
        ] {
            assert_fusion_parity(
                &mac_program(false, 60),
                budget,
                MemoryModel::Flat,
                &fill_dmem,
            );
            assert_fusion_parity(
                &mac_program(false, 60),
                budget,
                MemoryModel::maupiti(),
                &fill_dmem,
            );
        }
    }

    #[test]
    fn out_of_bounds_stream_falls_back_and_faults_identically() {
        // The copy runs off the end of data memory; the fused path must
        // decline and the unfused trace must reproduce the exact fault.
        let mut p = copy_program(LoadOp::Lw, StoreOp::Sw, 4, 4, 64);
        p[2] = Instr::Lui {
            rd: reg::T2,
            imm: 0x100,
        };
        p[3] = Instr::Addi {
            rd: reg::T2,
            rs1: reg::T2,
            imm: 16 * 1024 - 32, // 8 words of headroom for a 64-word copy
        };
        let (_, fused) = assert_fusion_parity(&p, 100_000, MemoryModel::Flat, &fill_dmem);
        assert!(
            fused.fusion_profile().is_empty(),
            "a declined stream must not count as a fusion hit"
        );
    }

    #[test]
    fn reloading_a_program_resets_the_fusion_profile() {
        let mut cpu = Cpu::new_default();
        cpu.set_exec_mode(ExecMode::BlockCached);
        cpu.load_program(&mac_program(false, 60)).unwrap();
        fill_dmem(&mut cpu);
        cpu.run(100_000).unwrap();
        assert!(!cpu.fusion_profile().is_empty());
        // Loading a new image invalidates the decoded blocks and the
        // fusion counters; the copy loop then fuses from scratch.
        cpu.load_program(&copy_program(LoadOp::Lw, StoreOp::Sw, 4, 4, 8))
            .unwrap();
        fill_dmem(&mut cpu);
        cpu.run(100_000).unwrap();
        let profile = cpu.fusion_profile();
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].0, "memcpy");
    }

    #[test]
    fn hottest_blocks_attribution_still_sums_to_instret_with_fusion() {
        let mut cpu = Cpu::new_default();
        cpu.set_exec_mode(ExecMode::BlockCached);
        cpu.load_program(&mac_program(false, 60)).unwrap();
        fill_dmem(&mut cpu);
        cpu.run(100_000).unwrap();
        let blocks = cpu.hottest_blocks(16);
        let total: u64 = blocks.iter().map(|b| b.instructions).sum();
        assert_eq!(
            total, cpu.instret,
            "per-block attribution must sum to instret"
        );
        let hot = &blocks[0];
        assert_eq!(hot.fused_kind, Some("mac_sdotp8"));
        assert!(hot.fused_entries >= 1);
        // Mid-trace recognition fuses the loop inside the prologue
        // trace, so all 60 iterations are attributed to one block.
        assert_eq!(hot.fused_iterations, 60);
        assert!(hot.fused_cycles > 0);
        let json = crate::cpu::hot_blocks_json(&blocks);
        assert!(json.contains("\"fused_kind\":\"mac_sdotp8\""));
        assert!(json.contains("\"fused_iterations\":60"));
    }

    #[test]
    fn toggling_fusion_off_disables_the_fused_path() {
        let mut cpu = Cpu::new_default();
        cpu.set_exec_mode(ExecMode::BlockCached);
        assert!(cpu.macro_fusion());
        cpu.set_macro_fusion(false);
        cpu.load_program(&mac_program(false, 60)).unwrap();
        fill_dmem(&mut cpu);
        cpu.run(100_000).unwrap();
        assert!(cpu.fusion_profile().is_empty());
        assert!(cpu
            .hottest_blocks(16)
            .iter()
            .all(|b| b.fused_kind.is_none()));
    }

    /// An output-row sweep over the conv3x3 kernel-x guard nest, exactly
    /// as `emit_conv3x3` lays it out: for each `ox` in `0..w`, reset the
    /// accumulator, run kx in `0..3` with left/right padding guards
    /// around an SDOTP channel loop, then consume the accumulator. The
    /// first trace (entry 0) carries the nest as a suffix at start 12;
    /// the re-entry trace at the loop head carries it at start 0.
    fn conv_nest_program(w: i32, ch: i32) -> Vec<Instr> {
        let mut p = Vec::new();
        p.extend(li_dmem(reg::A0, 0)); // xbase
        p.extend(li_dmem(reg::S10, 512)); // wbase
        for (rd, imm) in [
            (reg::A4, w),
            (reg::A5, ch),
            (reg::S8, 1),  // ky
            (reg::S11, 2), // iy
            (reg::S6, 0),  // ox
            (reg::S5, 0),  // checksum
        ] {
            p.push(Instr::Addi {
                rd,
                rs1: reg::ZERO,
                imm,
            });
        }
        // ox loop head (index 10): reset acc, kx = 0.
        p.push(Instr::Addi {
            rd: reg::S7,
            rs1: reg::ZERO,
            imm: 7,
        });
        p.push(Instr::Addi {
            rd: reg::T6,
            rs1: reg::ZERO,
            imm: 0,
        });
        // kx nest, indices 12..=36.
        p.push(Instr::Addi {
            rd: reg::T0,
            rs1: reg::ZERO,
            imm: 3,
        });
        p.push(Instr::Branch {
            op: BranchOp::Bge,
            rs1: reg::T6,
            rs2: reg::T0,
            offset: 24 * 4,
        });
        p.push(Instr::Add {
            rd: reg::T0,
            rs1: reg::S6,
            rs2: reg::T6,
        });
        p.push(Instr::Addi {
            rd: reg::T0,
            rs1: reg::T0,
            imm: -1,
        });
        p.push(Instr::Branch {
            op: BranchOp::Blt,
            rs1: reg::T0,
            rs2: reg::ZERO,
            offset: (23 - 4) * 4,
        });
        p.push(Instr::Branch {
            op: BranchOp::Bge,
            rs1: reg::T0,
            rs2: reg::A4,
            offset: (23 - 5) * 4,
        });
        p.push(Instr::Mul {
            rd: reg::T1,
            rs1: reg::S11,
            rs2: reg::A4,
        });
        p.push(Instr::Add {
            rd: reg::T1,
            rs1: reg::T1,
            rs2: reg::T0,
        });
        p.push(Instr::Mul {
            rd: reg::T1,
            rs1: reg::T1,
            rs2: reg::A5,
        });
        p.push(Instr::Add {
            rd: reg::T1,
            rs1: reg::T1,
            rs2: reg::A0,
        });
        p.push(Instr::Addi {
            rd: reg::T2,
            rs1: reg::ZERO,
            imm: 3,
        });
        p.push(Instr::Mul {
            rd: reg::T2,
            rs1: reg::T2,
            rs2: reg::S8,
        });
        p.push(Instr::Add {
            rd: reg::T2,
            rs1: reg::T2,
            rs2: reg::T6,
        });
        p.push(Instr::Mul {
            rd: reg::T2,
            rs1: reg::T2,
            rs2: reg::A5,
        });
        p.push(Instr::Add {
            rd: reg::T2,
            rs1: reg::T2,
            rs2: reg::S10,
        });
        p.push(Instr::Srli {
            rd: reg::T3,
            rs1: reg::A5,
            shamt: 2,
        });
        p.extend([
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::T4,
                rs1: reg::T1,
                offset: 0,
            },
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::T5,
                rs1: reg::T2,
                offset: 0,
            },
            Instr::Sdotp8 {
                rd: reg::S7,
                rs1: reg::T4,
                rs2: reg::T5,
            },
            Instr::Addi {
                rd: reg::T1,
                rs1: reg::T1,
                imm: 4,
            },
            Instr::Addi {
                rd: reg::T2,
                rs1: reg::T2,
                imm: 4,
            },
            Instr::Addi {
                rd: reg::T3,
                rs1: reg::T3,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::T3,
                rs2: reg::ZERO,
                offset: -24,
            },
        ]);
        p.push(Instr::Addi {
            rd: reg::T6,
            rs1: reg::T6,
            imm: 1,
        });
        p.push(Instr::Jal {
            rd: reg::ZERO,
            offset: -24 * 4,
        });
        // kx_end (index 37): fold the accumulator, advance ox.
        p.push(Instr::Add {
            rd: reg::S5,
            rs1: reg::S5,
            rs2: reg::S7,
        });
        p.push(Instr::Addi {
            rd: reg::S6,
            rs1: reg::S6,
            imm: 1,
        });
        p.push(Instr::Branch {
            op: BranchOp::Blt,
            rs1: reg::S6,
            rs2: reg::A4,
            offset: (10 - 39) * 4,
        });
        p.push(Instr::Ebreak);
        p
    }

    #[test]
    fn fused_conv_nest_matches_unfused_and_simple_bit_for_bit() {
        // W = 6, ch = 8 bytes (trip 2): ox = 0 takes the left-padding
        // guard, ox = 5 the right-padding guard, everything else runs
        // three full kernel taps. A full budget sweep crosses every
        // phase: prologue, guard skips, mid-channel-loop expiry and the
        // iteration boundaries of the fused nest.
        let p = conv_nest_program(6, 8);
        for budget in 1..=600u64 {
            assert_fusion_parity(&p, budget, MemoryModel::Flat, &fill_dmem);
        }
        let (_, fused) = assert_fusion_parity(&p, 100_000, MemoryModel::Flat, &fill_dmem);
        let profile = fused.fusion_profile();
        assert!(
            profile.iter().any(|(name, entries, iters)| {
                *name == "conv3x3_nest" && *entries >= 6 && *iters >= 18
            }),
            "nest should dominate the profile, got {profile:?}"
        );
        assert!(fused
            .hottest_blocks(16)
            .iter()
            .any(|b| b.fused_kind == Some("conv3x3_nest")));

        // trip 1 (ch = 4): the channel loop collapses to a single pass.
        let p1 = conv_nest_program(6, 4);
        for budget in [1, 17, 40, 41, 42, 100, 253, 254, 255, 100_000] {
            assert_fusion_parity(&p1, budget, MemoryModel::Flat, &fill_dmem);
        }

        // Under Maupiti the nest charges the memory model per path. A
        // prefetch buffer deeper than the nest setup keeps the refill
        // window live into the channel loop's loads: with 18 entries the
        // first full iteration (entered two instructions after the ox
        // loop's branch) misses the contention every later iteration
        // pays, and 32 entries outlast every nest path.
        let deep = |prefetch_entries| {
            MemoryModel::Maupiti(crate::MaupitiMemConfig {
                prefetch_entries,
                refill_cycles: 5,
                contention_cycles: 3,
            })
        };
        for model in [MemoryModel::maupiti(), deep(18), deep(32)] {
            for budget in (1..=600u64).step_by(7).chain([100_000]) {
                assert_fusion_parity(&p, budget, model, &fill_dmem);
            }
            let (_, fused) = assert_fusion_parity(&p, 100_000, model, &fill_dmem);
            assert!(
                fused
                    .fusion_profile()
                    .iter()
                    .any(|(name, ..)| *name == "conv3x3_nest"),
                "the nest must fuse under {model:?}"
            );
            assert!(fused.mem_stats().fetch_misses > 0);
        }
        // Clones share decoded blocks, so a clone under another
        // configuration must not reuse the nest's cached charges.
        let mut pristine = Cpu::new_default().with_exec_mode(ExecMode::BlockCached);
        pristine.load_program(&p).unwrap();
        fill_dmem(&mut pristine);
        let models = [deep(18), MemoryModel::maupiti()];
        let runs = models.map(|model| {
            let mut cpu = pristine.clone().with_memory_model(model);
            cpu.run(100_000).unwrap();
            cpu
        });
        for (cpu, model) in runs.iter().zip(models) {
            let (_, fresh) = assert_fusion_parity(&p, 100_000, model, &fill_dmem);
            assert_eq!(cpu.cycles, fresh.cycles, "{model:?}");
            assert_eq!(cpu.mem_stats(), fresh.mem_stats(), "{model:?}");
        }
    }

    #[test]
    fn conv_nest_zero_trip_channel_loop_times_out_identically() {
        // ch = 2 makes `srli` produce a zero trip count: the do-while
        // channel loop wraps through 2^32 iterations. The nest must
        // decline at the iteration boundary and both engines time out on
        // the same instruction with identical partial state.
        let p = conv_nest_program(6, 2);
        for budget in [40, 41, 50, 100, 200] {
            assert_fusion_parity(&p, budget, MemoryModel::Flat, &fill_dmem);
        }
    }

    #[test]
    fn conv_nest_out_of_bounds_stream_faults_identically() {
        // iy = 2000 pushes xptr far past data memory: the fused nest
        // must decline the iteration untouched and the unfused replay
        // reproduces the exact access fault.
        let mut p = conv_nest_program(6, 8);
        p[7] = Instr::Addi {
            rd: reg::S11,
            rs1: reg::ZERO,
            imm: 2000,
        };
        assert_fusion_parity(&p, 100_000, MemoryModel::Flat, &fill_dmem);
        assert_fusion_parity(&p, 100_000, MemoryModel::maupiti(), &fill_dmem);
    }

    mod fusion_props {
        use super::*;
        use proptest::prelude::*;

        /// Seeds data memory with a deterministic byte pattern.
        fn seeded_fill(seed: u64) -> impl Fn(&mut Cpu) {
            move |cpu: &mut Cpu| {
                let mut state = seed | 1;
                let bytes: Vec<u8> = (0..cpu.mem.dmem_size())
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) as u8
                    })
                    .collect();
                cpu.mem.write_dmem(DMEM_BASE, &bytes);
            }
        }

        /// Materialises `DMEM_BASE + extra` (or `DMEM_BASE + 16K - back`
        /// when probing the end of data memory) without exceeding the
        /// 12-bit `addi` immediate.
        fn li_addr(rd: u8, near_end: bool, extra: i32) -> [Instr; 2] {
            if near_end {
                [
                    Instr::Lui { rd, imm: 0x104 }, // DMEM_BASE + 16 KiB
                    Instr::Addi {
                        rd,
                        rs1: rd,
                        imm: -extra,
                    },
                ]
            } else {
                [
                    Instr::Lui { rd, imm: 0x100 },
                    Instr::Addi {
                        rd,
                        rs1: rd,
                        imm: extra,
                    },
                ]
            }
        }

        proptest! {
            /// Random copy loops — all five load widths, signed and
            /// unsigned, random strides (including zero and negative),
            /// random overlap, random budgets and occasional streams that
            /// run off the end of data memory — are bit-identical between
            /// the fused and unfused engines, faults and timeouts
            /// included.
            #[test]
            fn random_copy_loops_are_bit_identical(
                which in 0..5usize,
                ss in -8i32..9,
                ds in -8i32..9,
                count in 0i32..70,
                src_extra in 600i32..1800,
                dst_extra in 600i32..1800,
                near_end_sel in 0u32..5,
                budget in 1u64..1200,
                seed in any::<u64>(),
            ) {
                let (load, store) = [
                    (LoadOp::Lb, StoreOp::Sb),
                    (LoadOp::Lbu, StoreOp::Sb),
                    (LoadOp::Lh, StoreOp::Sh),
                    (LoadOp::Lhu, StoreOp::Sw),
                    (LoadOp::Lw, StoreOp::Sw),
                ][which];
                let near_end = near_end_sel == 0;
                let mut p = Vec::new();
                p.extend(li_addr(reg::T1, near_end, src_extra));
                p.extend(li_addr(reg::T2, false, dst_extra));
                p.push(Instr::Addi { rd: reg::T3, rs1: reg::ZERO, imm: count });
                p.extend([
                    Instr::Load { op: load, rd: reg::T4, rs1: reg::T1, offset: 0 },
                    Instr::Store { op: store, rs1: reg::T2, rs2: reg::T4, offset: 0 },
                    Instr::Addi { rd: reg::T1, rs1: reg::T1, imm: ss },
                    Instr::Addi { rd: reg::T2, rs1: reg::T2, imm: ds },
                    Instr::Addi { rd: reg::T3, rs1: reg::T3, imm: -1 },
                    Instr::Branch { op: BranchOp::Bne, rs1: reg::T3, rs2: reg::ZERO, offset: -20 },
                    Instr::Ebreak,
                ]);
                assert_fusion_parity(&p, budget, MemoryModel::Flat, &seeded_fill(seed));
                assert_fusion_parity(&p, budget, MemoryModel::maupiti(), &seeded_fill(seed));
            }

            /// Random memset loops with every store width, random stride
            /// and fill value (x0 included) are bit-identical.
            #[test]
            fn random_memset_loops_are_bit_identical(
                which in 0..3usize,
                stride in -8i32..9,
                count in 0i32..70,
                extra in 600i32..1800,
                near_end_sel in 0u32..5,
                zero_val in any::<bool>(),
                fill in -2048i32..2048,
                budget in 1u64..1200,
                seed in any::<u64>(),
            ) {
                let store = [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw][which];
                let near_end = near_end_sel == 0;
                let val = if zero_val { reg::ZERO } else { reg::A0 };
                let mut p = Vec::new();
                p.extend(li_addr(reg::T1, near_end, extra));
                p.push(Instr::Addi { rd: reg::T3, rs1: reg::ZERO, imm: count });
                p.push(Instr::Addi { rd: reg::A0, rs1: reg::ZERO, imm: fill });
                p.extend([
                    Instr::Store { op: store, rs1: reg::T1, rs2: val, offset: 0 },
                    Instr::Addi { rd: reg::T1, rs1: reg::T1, imm: stride },
                    Instr::Addi { rd: reg::T3, rs1: reg::T3, imm: -1 },
                    Instr::Branch { op: BranchOp::Bne, rs1: reg::T3, rs2: reg::ZERO, offset: -12 },
                    Instr::Ebreak,
                ]);
                assert_fusion_parity(&p, budget, MemoryModel::Flat, &seeded_fill(seed));
            }

            /// Random SDOTP MAC reductions — both lane widths, random
            /// word strides (unaligned included: data memory has no
            /// alignment requirement), random budgets — are
            /// bit-identical.
            #[test]
            fn random_mac_loops_are_bit_identical(
                four_bit in any::<bool>(),
                s1 in -8i32..9,
                s2 in -8i32..9,
                count in 0i32..70,
                e1 in 600i32..1800,
                e2 in 600i32..1800,
                near_end_sel in 0u32..5,
                budget in 1u64..1200,
                seed in any::<u64>(),
            ) {
                let sdotp = if four_bit {
                    Instr::Sdotp4 { rd: reg::S7, rs1: reg::T4, rs2: reg::T5 }
                } else {
                    Instr::Sdotp8 { rd: reg::S7, rs1: reg::T4, rs2: reg::T5 }
                };
                let near_end = near_end_sel == 0;
                let mut p = Vec::new();
                p.extend(li_addr(reg::T1, near_end, e1));
                p.extend(li_addr(reg::T2, false, e2));
                p.push(Instr::Addi { rd: reg::T3, rs1: reg::ZERO, imm: count });
                p.extend([
                    Instr::Load { op: LoadOp::Lw, rd: reg::T4, rs1: reg::T1, offset: 0 },
                    Instr::Load { op: LoadOp::Lw, rd: reg::T5, rs1: reg::T2, offset: 0 },
                    sdotp,
                    Instr::Addi { rd: reg::T1, rs1: reg::T1, imm: s1 },
                    Instr::Addi { rd: reg::T2, rs1: reg::T2, imm: s2 },
                    Instr::Addi { rd: reg::T3, rs1: reg::T3, imm: -1 },
                    Instr::Branch { op: BranchOp::Bne, rs1: reg::T3, rs2: reg::ZERO, offset: -24 },
                    Instr::Ebreak,
                ]);
                assert_fusion_parity(&p, budget, MemoryModel::Flat, &seeded_fill(seed));
                assert_fusion_parity(&p, budget, MemoryModel::maupiti(), &seeded_fill(seed));
            }
        }
    }
}
