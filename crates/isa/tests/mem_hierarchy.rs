//! Differential and property tests of the memory-hierarchy cost seam.
//!
//! * `MemoryModel::Flat` must reproduce the ideal-memory cycle counts
//!   bit-identically (it charges nothing), in both engines.
//! * `MemoryModel::Maupiti` is defined over the retired instruction
//!   stream, so the reference interpreter's per-instruction stepping and
//!   the block-cached engine's per-trace summaries must produce identical
//!   cycles and stall counters — on any program, including ones that
//!   branch, jump, fault or run out of budget.
//! * Maupiti invariants: total cycles decompose exactly into flat cycles
//!   plus the stall breakdown, the cycle delta is monotone (linear) in
//!   the refill latency, and programs whose prefetch buffer never misses
//!   (no taken control transfers) stall zero extra cycles.

use pcount_isa::{
    reg, BranchOp, Cpu, ExecMode, Instr, LoadOp, MaupitiMemConfig, MemoryModel, StoreOp, DMEM_BASE,
};
use proptest::prelude::*;

/// Builds a CPU in the given mode/model, loads `program` and runs it.
fn run(program: &[Instr], mode: ExecMode, model: MemoryModel) -> Cpu {
    let mut cpu = Cpu::new_default()
        .with_exec_mode(mode)
        .with_memory_model(model);
    cpu.load_program(program).unwrap();
    cpu.run(100_000).unwrap();
    cpu
}

/// Decodes one generated tuple into a forward-flowing instruction at body
/// index `i` of `len` total body instructions. All control transfers jump
/// forward, so every generated program halts at the trailing `Ebreak`.
fn lower(choice: (u8, u8, u8, u8), i: usize, len: usize, mem_ops: bool) -> Instr {
    let (kind, a, b, c) = choice;
    let regs = [reg::A1, reg::A2, reg::A3, reg::A4];
    let ra = regs[a as usize % 4];
    let rb = regs[b as usize % 4];
    let skip = 1 + c as usize % (len - i);
    let kind = if mem_ops { kind % 6 } else { kind % 2 };
    match kind {
        0 => Instr::Addi {
            rd: ra,
            rs1: rb,
            imm: c as i32 - 4,
        },
        1 => Instr::Add {
            rd: ra,
            rs1: rb,
            rs2: regs[(a + b) as usize % 4],
        },
        2 => Instr::Load {
            op: LoadOp::Lw,
            rd: ra,
            rs1: reg::A0,
            offset: 4 * (c as i32 % 8),
        },
        3 => Instr::Store {
            op: StoreOp::Sw,
            rs1: reg::A0,
            rs2: rb,
            offset: 4 * (c as i32 % 8),
        },
        4 => Instr::Branch {
            op: if a % 2 == 0 {
                BranchOp::Beq
            } else {
                BranchOp::Bne
            },
            rs1: ra,
            rs2: rb,
            offset: 4 * skip as i32,
        },
        _ => Instr::Jal {
            rd: reg::ZERO,
            offset: 4 * skip as i32,
        },
    }
}

/// A random halting program: data-pointer prologue, a mixed body of ALU /
/// load / store / forward-branch / forward-jump instructions, and an
/// `Ebreak`. With `branchy = false` the body is pure ALU + memory, so the
/// prefetch buffer can never miss.
fn program(choices: &[(u8, u8, u8, u8)], branchy: bool) -> Vec<Instr> {
    let mut prog = vec![
        Instr::Lui {
            rd: reg::A0,
            imm: (DMEM_BASE >> 12) as i32,
        },
        Instr::Addi {
            rd: reg::A1,
            rs1: reg::ZERO,
            imm: 1,
        },
    ];
    let len = choices.len();
    for (i, &choice) in choices.iter().enumerate() {
        let instr = lower(choice, i, len, true);
        let keep_branches = branchy;
        let instr = match instr {
            Instr::Branch { .. } | Instr::Jal { .. } if !keep_branches => {
                lower(choice, i, len, false)
            }
            other => other,
        };
        prog.push(instr);
    }
    prog.push(Instr::Ebreak);
    prog
}

fn choices_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
    collection::vec((0u8..6, 0u8..8, 0u8..8, 0u8..8), 1..40)
}

proptest! {
    #[test]
    fn maupiti_stats_are_identical_across_engines(
        choices in choices_strategy(),
    ) {
        let prog = program(&choices, true);
        let model = MemoryModel::maupiti();
        let simple = run(&prog, ExecMode::Simple, model);
        let cached = run(&prog, ExecMode::BlockCached, model);
        prop_assert_eq!(simple.instret, cached.instret);
        prop_assert_eq!(simple.cycles, cached.cycles);
        prop_assert_eq!(simple.pipeline_stats(), cached.pipeline_stats());
        prop_assert_eq!(simple.mem_stats(), cached.mem_stats());
    }

    #[test]
    fn maupiti_cycles_decompose_into_flat_cycles_plus_stalls(
        choices in choices_strategy(),
    ) {
        let prog = program(&choices, true);
        for mode in [ExecMode::Simple, ExecMode::BlockCached] {
            let flat = run(&prog, mode, MemoryModel::Flat);
            let maupiti = run(&prog, mode, MemoryModel::maupiti());
            prop_assert_eq!(flat.mem_stats(), Default::default());
            prop_assert_eq!(flat.instret, maupiti.instret);
            prop_assert_eq!(
                maupiti.cycles,
                flat.cycles + maupiti.mem_stats().stall_cycles()
            );
        }
    }

    #[test]
    fn maupiti_cycles_are_monotone_and_linear_in_the_latencies(
        choices in choices_strategy(),
        refill in 1u32..6,
        contention in 1u32..4,
    ) {
        let prog = program(&choices, true);
        let cfg = MaupitiMemConfig {
            prefetch_entries: 4,
            refill_cycles: refill,
            contention_cycles: contention,
        };
        let base = run(&prog, ExecMode::BlockCached, MemoryModel::Maupiti(cfg));
        let slower_refill = run(
            &prog,
            ExecMode::BlockCached,
            MemoryModel::Maupiti(MaupitiMemConfig {
                refill_cycles: refill + 1,
                ..cfg
            }));
        let slower_port = run(
            &prog,
            ExecMode::BlockCached,
            MemoryModel::Maupiti(MaupitiMemConfig {
                contention_cycles: contention + 1,
                ..cfg
            }));
        // The event counts depend only on the prefetch depth, so raising a
        // latency scales its stall component exactly linearly (and hence
        // monotonically).
        let stats = base.mem_stats();
        prop_assert_eq!(slower_refill.mem_stats().fetch_misses, stats.fetch_misses);
        prop_assert_eq!(
            slower_refill.cycles,
            base.cycles + stats.fetch_misses,
            "one extra refill cycle per miss"
        );
        prop_assert_eq!(
            slower_port.mem_stats().contended_accesses,
            stats.contended_accesses
        );
        prop_assert_eq!(
            slower_port.cycles,
            base.cycles + stats.contended_accesses,
            "one extra contention cycle per collided access"
        );
    }

    #[test]
    fn programs_whose_prefetch_never_misses_stall_zero_cycles(
        choices in choices_strategy(),
    ) {
        // No branches or jumps: the prefetch buffer streams sequentially
        // and never misses, so Maupiti must charge nothing at all.
        let prog = program(&choices, false);
        for mode in [ExecMode::Simple, ExecMode::BlockCached] {
            let flat = run(&prog, mode, MemoryModel::Flat);
            let maupiti = run(&prog, mode, MemoryModel::maupiti());
            prop_assert_eq!(maupiti.mem_stats(), Default::default());
            prop_assert_eq!(maupiti.cycles, flat.cycles);
        }
    }
}

#[test]
fn a_jump_charges_exactly_the_refill_latency() {
    let prog = [
        Instr::Jal {
            rd: reg::ZERO,
            offset: 8,
        },
        Instr::Ebreak, // skipped
        Instr::Ebreak,
    ];
    for mode in [ExecMode::Simple, ExecMode::BlockCached] {
        let flat = run(&prog, mode, MemoryModel::Flat);
        let maupiti = run(&prog, mode, MemoryModel::maupiti());
        assert_eq!(flat.cycles, 3, "jal (2) + ebreak (1)");
        let stats = maupiti.mem_stats();
        assert_eq!(stats.fetch_misses, 1);
        assert_eq!(stats.imem_stall_cycles, 2, "default refill latency");
        assert_eq!(stats.dmem_stall_cycles, 0);
        assert_eq!(maupiti.cycles, 5);
    }
}

#[test]
fn data_accesses_contend_only_inside_the_refill_window() {
    // After the jump the 2-entry prefetch buffer refills; the first two
    // loads steal the SRAM port from the refill, the third is free. The
    // store before the jump runs with a full buffer and never contends.
    let cfg = MaupitiMemConfig {
        prefetch_entries: 2,
        refill_cycles: 2,
        contention_cycles: 1,
    };
    let prog = [
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
        Instr::Jal {
            rd: reg::ZERO,
            offset: 8,
        },
        Instr::Ebreak, // skipped
        Instr::Load {
            op: LoadOp::Lw,
            rd: reg::A1,
            rs1: reg::A0,
            offset: 0,
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: reg::A2,
            rs1: reg::A0,
            offset: 4,
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: reg::A3,
            rs1: reg::A0,
            offset: 8,
        },
        Instr::Ebreak,
    ];
    for mode in [ExecMode::Simple, ExecMode::BlockCached] {
        let cpu = run(&prog, mode, MemoryModel::Maupiti(cfg));
        let stats = cpu.mem_stats();
        assert_eq!(stats.fetch_misses, 1, "{mode:?}");
        assert_eq!(stats.imem_stall_cycles, 2, "{mode:?}");
        assert_eq!(stats.contended_accesses, 2, "{mode:?}");
        assert_eq!(stats.dmem_stall_cycles, 2, "{mode:?}");
    }
}

#[test]
fn every_taken_backward_branch_misses_the_prefetch_buffer() {
    let prog = [
        Instr::Addi {
            rd: reg::T0,
            rs1: reg::ZERO,
            imm: 10,
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
            offset: -4,
        },
        Instr::Ebreak,
    ];
    for mode in [ExecMode::Simple, ExecMode::BlockCached] {
        let cpu = run(&prog, mode, MemoryModel::maupiti());
        assert_eq!(cpu.mem_stats().fetch_misses, 9, "{mode:?}");
    }
}

#[test]
fn stats_survive_timeout_and_resume_identically_in_both_engines() {
    let mut prog = vec![Instr::Addi {
        rd: reg::T0,
        rs1: reg::ZERO,
        imm: 6,
    }];
    for _ in 0..4 {
        prog.push(Instr::Addi {
            rd: reg::A1,
            rs1: reg::A1,
            imm: 1,
        });
    }
    prog.extend([
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
    ]);
    let run_sliced = |mode: ExecMode| {
        let mut cpu = Cpu::new_default()
            .with_exec_mode(mode)
            .with_memory_model(MemoryModel::maupiti());
        cpu.load_program(&prog).unwrap();
        // Cut the run mid-trace repeatedly, then let it finish.
        while cpu.run(7).is_err() {}
        cpu
    };
    let simple = run_sliced(ExecMode::Simple);
    let cached = run_sliced(ExecMode::BlockCached);
    assert_eq!(simple.instret, cached.instret);
    assert_eq!(simple.cycles, cached.cycles);
    assert_eq!(simple.pipeline_stats(), cached.pipeline_stats());
    assert_eq!(simple.mem_stats(), cached.mem_stats());
    assert!(simple.mem_stats().fetch_misses > 0);
}

#[test]
fn memory_faults_charge_only_the_retired_prefix() {
    // The faulting store never reaches the SRAM port: stall counters must
    // agree between engines and with the no-fault prefix.
    let prog = [
        Instr::Jal {
            rd: reg::ZERO,
            offset: 8,
        },
        Instr::Ebreak, // skipped
        Instr::Store {
            op: StoreOp::Sw,
            rs1: reg::ZERO,
            rs2: reg::ZERO,
            offset: 0,
        },
        Instr::Ebreak,
    ];
    let mut results = Vec::new();
    for mode in [ExecMode::Simple, ExecMode::BlockCached] {
        let mut cpu = Cpu::new_default()
            .with_exec_mode(mode)
            .with_memory_model(MemoryModel::maupiti());
        cpu.load_program(&prog).unwrap();
        assert!(cpu.run(100).is_err());
        results.push((
            cpu.instret,
            cpu.cycles,
            cpu.pipeline_stats(),
            cpu.mem_stats(),
        ));
    }
    assert_eq!(results[0], results[1]);
    let (_, _, _, stats) = results[0];
    assert_eq!(stats.fetch_misses, 1, "only the jump missed");
    assert_eq!(stats.contended_accesses, 0, "the fault retired no access");
}

#[test]
fn hottest_blocks_attribute_memory_stalls_per_trace() {
    let prog = [
        Instr::Lui {
            rd: reg::A0,
            imm: (DMEM_BASE >> 12) as i32,
        },
        Instr::Addi {
            rd: reg::T0,
            rs1: reg::ZERO,
            imm: 20,
        },
        // Loop body: one load, one decrement, one backward branch.
        Instr::Load {
            op: LoadOp::Lw,
            rd: reg::A1,
            rs1: reg::A0,
            offset: 0,
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
    let flat = run(&prog, ExecMode::BlockCached, MemoryModel::Flat);
    for hot in flat.hottest_blocks(4) {
        assert_eq!(hot.mem_stall_cycles, 0, "flat model never stalls");
    }
    let maupiti = run(&prog, ExecMode::BlockCached, MemoryModel::maupiti());
    let hot = maupiti.hottest_blocks(4);
    let attributed: u64 = hot.iter().map(|h| h.mem_stall_cycles).sum();
    assert_eq!(
        attributed,
        maupiti.mem_stats().stall_cycles(),
        "the profile attributes every stall cycle to a trace"
    );
    assert!(
        hot[0].mem_stall_cycles > 0,
        "the loop trace pays refill stalls"
    );
}

#[test]
fn flat_runs_are_bit_identical_to_the_default_model() {
    let prog = [
        Instr::Addi {
            rd: reg::T0,
            rs1: reg::ZERO,
            imm: 5,
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
            offset: -4,
        },
        Instr::Ebreak,
    ];
    for mode in [ExecMode::Simple, ExecMode::BlockCached] {
        let mut default_cpu = Cpu::new_default().with_exec_mode(mode);
        assert!(default_cpu.memory_model().is_flat(), "Flat is the default");
        default_cpu.load_program(&prog).unwrap();
        let rd = default_cpu.run(1_000).unwrap();
        let flat = run(&prog, mode, MemoryModel::Flat);
        assert_eq!(rd.cycles, flat.cycles);
        assert_eq!(rd.instructions, flat.instret);
    }
}
