//! The IBEX timing model: one per-instruction rule for every execution
//! path.
//!
//! IBEX is an in-order, single-issue core whose fetch stage feeds a
//! combined decode/execute stage. An instruction occupies that stage for
//! 1 cycle (ALU, multiply, control transfer, and SDOTP — the MAUPITI
//! SDOTP unit is single-cycle because the paper replicates multipliers
//! instead of sharing them), 2 cycles (loads and stores: one extra
//! data-interface cycle) or 37 cycles (the iterative divider). Two hazards
//! come on top:
//!
//! * **load-use interlock** — an instruction reading the destination of
//!   the immediately preceding load stalls one cycle while the data
//!   returns;
//! * **branch flush** — a taken control transfer squashes the prefetched
//!   instruction: jumps (target known in decode) pay 1 refill cycle, taken
//!   branches (target resolved in execute) 2.
//!
//! [`Pipeline::retire`] is that rule over a [`Decoded`]'s timing fields.
//! The reference interpreter calls it once per step, the block-cached
//! engine once per dispatched instruction, and macro-op fusion sums it
//! over each fused loop path ([`PathCost::of`]) — so both engines report
//! identical cycles and [`PipelineStats`]. Memory-hierarchy stalls come
//! on top, through [`crate::MemoryModel`].

use crate::instr::{Decoded, Instr};

/// Stage-occupancy cycles of ALU, multiply, SDOTP and control transfers,
/// of loads and stores, and of divisions / remainders.
const CYCLES_ALU: u8 = 1;
const CYCLES_MEM: u8 = 2;
const CYCLES_DIV: u8 = 37;
/// Stall of an instruction consuming the preceding load's result.
const LOAD_USE_STALL: u64 = 1;

/// Stage-occupancy cycles of one instruction (`Decoded::base_cycles`).
pub(crate) fn stage_cycles(instr: &Instr) -> u8 {
    match instr {
        Instr::Load { .. } | Instr::Store { .. } => CYCLES_MEM,
        Instr::Div { .. } | Instr::Divu { .. } | Instr::Rem { .. } | Instr::Remu { .. } => {
            CYCLES_DIV
        }
        _ => CYCLES_ALU,
    }
}

/// Fetch-refill cycles one instruction pays when it redirects the PC
/// (`Decoded::flush_on_take`).
pub(crate) fn flush_cycles(instr: &Instr) -> u8 {
    match instr {
        Instr::Jal { .. } | Instr::Jalr { .. } => 1,
        Instr::Branch { .. } => 2,
        _ => 0,
    }
}

/// Cycles lost to stalls and flushes, broken out by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Instructions timed by the pipeline model.
    pub instructions: u64,
    /// Cycles lost to load-use interlock stalls.
    pub load_use_stalls: u64,
    /// Cycles lost re-filling fetch after taken control transfers.
    pub flush_cycles: u64,
}

/// Hazard-tracking state of the fetch/decode/execute pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Pipeline {
    /// Destination register of the load currently in its memory cycle
    /// (0 = none; x0 loads never interlock).
    pub(crate) load_dest: u8,
    /// Observable stall/flush counters.
    pub(crate) stats: PipelineStats,
}

impl Pipeline {
    /// The timing rule: retires `d`, which redirected the PC iff `taken`
    /// (a jump, or a taken conditional branch), and returns its cycles —
    /// stage occupancy, a load-use stall when it reads the preceding
    /// load's destination, and the flush of a taken control transfer.
    /// Updates the hazard state and the stall/flush counters; counting
    /// retired instructions is left to the caller.
    #[inline(always)]
    pub(crate) fn retire(&mut self, d: &Decoded, taken: bool) -> u64 {
        let stall = if self.load_dest != 0 && (d.reads_mask >> self.load_dest) & 1 != 0 {
            LOAD_USE_STALL
        } else {
            0
        };
        let flush = if taken { d.flush_on_take as u64 } else { 0 };
        self.load_dest = if d.is_load { d.rd } else { 0 };
        self.stats.load_use_stalls += stall;
        self.stats.flush_cycles += flush;
        d.base_cycles as u64 + stall + flush
    }

    /// Charges `times` back-to-back runs of a precomputed path and
    /// returns their cycles. Exact when the path ends in a control
    /// transfer and its first instruction cannot stall on the current
    /// state (it reads no pending load, or follows another run).
    pub(crate) fn repeat(&mut self, path: &PathCost, times: u64) -> u64 {
        if times > 0 {
            self.load_dest = 0;
            self.stats.load_use_stalls += path.stalls * times;
            self.stats.flush_cycles += path.flushes * times;
        }
        path.cycles * times
    }
}

/// What [`Pipeline::retire`] charges along one instruction path entered
/// with no pending load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PathCost {
    /// Instructions retired on the path.
    pub instret: u64,
    /// Cycles charged, stalls and flushes included.
    pub cycles: u64,
    /// Load-use stall cycles within `cycles`.
    pub stalls: u64,
    /// Flush cycles within `cycles`.
    pub flushes: u64,
}

impl PathCost {
    /// Times `path`, a sequence of (instruction, taken) steps.
    pub(crate) fn of<'a>(path: impl IntoIterator<Item = (&'a Decoded, bool)>) -> Self {
        let mut pipe = Pipeline::default();
        let mut cost = PathCost::default();
        for (d, taken) in path {
            cost.instret += 1;
            cost.cycles += pipe.retire(d, taken);
        }
        cost.stalls = pipe.stats.load_use_stalls;
        cost.flushes = pipe.stats.flush_cycles;
        cost
    }
}

#[cfg(test)]
mod tests {
    use crate::instr::{BranchOp, Instr, LoadOp, StoreOp};
    use crate::memory::DMEM_BASE;
    use crate::{reg, Cpu, ExecMode};

    /// Runs `program` on both engines, checks that they time it
    /// identically and returns the block-cached CPU.
    fn run_cached(program: &[Instr]) -> Cpu {
        let [simple, cached] = [ExecMode::Simple, ExecMode::BlockCached].map(|mode| {
            let mut cpu = Cpu::new_default().with_exec_mode(mode);
            cpu.load_program(program).unwrap();
            cpu.run(100_000).unwrap();
            cpu
        });
        assert_eq!(simple.cycles, cached.cycles, "engines disagree on cycles");
        assert_eq!(simple.pipeline_stats(), cached.pipeline_stats());
        cached
    }

    fn prologue() -> Vec<Instr> {
        vec![
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
        ]
    }

    #[test]
    fn load_use_stalls_one_cycle() {
        let mut program = prologue();
        program.extend([
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A1,
                rs1: reg::A0,
                offset: 0,
            },
            Instr::Add {
                rd: reg::A2,
                rs1: reg::A1,
                rs2: reg::ZERO,
            },
            Instr::Ebreak,
        ]);
        let cpu = run_cached(&program);
        assert_eq!(cpu.pipeline_stats().load_use_stalls, 1);
        // lui(1) + sw(2) + lw(2) + stalled add(2) + ebreak(1)
        assert_eq!(cpu.cycles, 8);
    }

    #[test]
    fn independent_instruction_after_load_does_not_stall() {
        let mut program = prologue();
        program.extend([
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A1,
                rs1: reg::A0,
                offset: 0,
            },
            Instr::Add {
                rd: reg::A2,
                rs1: reg::A3,
                rs2: reg::A4,
            },
            Instr::Ebreak,
        ]);
        let cpu = run_cached(&program);
        assert_eq!(cpu.pipeline_stats().load_use_stalls, 0);
    }

    #[test]
    fn hazard_window_is_a_single_instruction() {
        let mut program = prologue();
        program.extend([
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A1,
                rs1: reg::A0,
                offset: 0,
            },
            Instr::Addi {
                rd: reg::T0,
                rs1: reg::ZERO,
                imm: 1,
            },
            Instr::Add {
                rd: reg::A2,
                rs1: reg::A1,
                rs2: reg::ZERO,
            },
            Instr::Ebreak,
        ]);
        let cpu = run_cached(&program);
        assert_eq!(cpu.pipeline_stats().load_use_stalls, 0);
    }

    #[test]
    fn sdotp_accumulator_read_participates_in_hazards() {
        let mut program = prologue();
        program.extend([
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A2,
                rs1: reg::A0,
                offset: 0,
            },
            Instr::Sdotp8 {
                rd: reg::A2,
                rs1: reg::A3,
                rs2: reg::A4,
            },
            Instr::Ebreak,
        ]);
        let cpu = run_cached(&program);
        assert_eq!(
            cpu.pipeline_stats().load_use_stalls,
            1,
            "rd is a third read port on SDOTP"
        );
    }

    #[test]
    fn taken_branch_flushes_hazard_state_and_counts_flush_cycles() {
        // The load feeding a consumer across a taken branch does not stall:
        // the flush re-fills the pipe and hides the load latency.
        let mut program = prologue();
        program.extend([
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::A1,
                rs1: reg::A0,
                offset: 0,
            },
            Instr::Branch {
                op: BranchOp::Beq,
                rs1: reg::ZERO,
                rs2: reg::ZERO,
                offset: 8,
            },
            Instr::Ebreak, // skipped
            Instr::Add {
                rd: reg::A2,
                rs1: reg::A1,
                rs2: reg::ZERO,
            },
            Instr::Ebreak,
        ]);
        let cpu = run_cached(&program);
        assert_eq!(cpu.pipeline_stats().load_use_stalls, 0);
        assert_eq!(cpu.pipeline_stats().flush_cycles, 2);
    }

    #[test]
    fn jumps_account_one_flush_cycle() {
        let program = [
            Instr::Jal {
                rd: reg::ZERO,
                offset: 8,
            },
            Instr::Ebreak, // skipped
            Instr::Ebreak,
        ];
        let cpu = run_cached(&program);
        assert_eq!(cpu.pipeline_stats().flush_cycles, 1);
        assert_eq!(cpu.cycles, 3); // jal(2) + ebreak(1)
    }

    #[test]
    fn loads_to_x0_never_interlock() {
        let mut program = prologue();
        program.extend([
            Instr::Load {
                op: LoadOp::Lw,
                rd: reg::ZERO,
                rs1: reg::A0,
                offset: 0,
            },
            Instr::Add {
                rd: reg::A2,
                rs1: reg::ZERO,
                rs2: reg::ZERO,
            },
            Instr::Ebreak,
        ]);
        let cpu = run_cached(&program);
        assert_eq!(cpu.pipeline_stats().load_use_stalls, 0);
    }

    #[test]
    fn stats_count_all_instructions() {
        let program = [
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::ZERO,
                imm: 3,
            },
            Instr::Addi {
                rd: reg::A0,
                rs1: reg::A0,
                imm: -1,
            },
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: reg::A0,
                rs2: reg::ZERO,
                offset: -4,
            },
            Instr::Ebreak,
        ];
        let cpu = run_cached(&program);
        assert_eq!(cpu.pipeline_stats().instructions, cpu.instret);
    }
}
