//! RV32IM instruction-set simulator with the MAUPITI SDOTP extension.
//!
//! The MAUPITI smart sensor extends an IBEX-class RV32IMC core with a
//! single-cycle SIMD *sum-of-dot-products* (SDOTP) unit: one instruction
//! multiplies four 8-bit (or eight 4-bit) signed lanes of two source
//! registers and accumulates the partial products into the destination
//! register, which is read as a third source operand through an extra
//! register-file read port.
//!
//! This crate provides:
//!
//! * the [`Instr`] enum with RISC-V binary [`Instr::encode`]/[`decode`]
//!   support (the SDOTP instructions use the `custom-0` opcode), plus the
//!   pre-decoded [`Decoded`] IR consumed by the block-cached engine;
//! * a [`Cpu`] executing from byte-addressed instruction/data memories
//!   with an instruction [`Trace`], one pipelined IBEX timing model
//!   (load-use interlock and branch-flush stall accounting via
//!   [`PipelineStats`]) and two engines selected by [`ExecMode`] that
//!   differ only in speed: the `Simple` reference interpreter, and the
//!   `BlockCached` superblock-trace engine with macro-op fusion and a
//!   per-block execution profile
//!   ([`Cpu::hottest_blocks`]) that runs the deployed CNN workloads
//!   several times faster. The decoded blocks are shared `Arc`
//!   snapshots, so `Cpu` is `Send` and a warmed CPU clones across
//!   threads for parallel frame evaluation;
//! * a pluggable memory-hierarchy cost seam ([`MemoryModel`]): the
//!   default [`MemoryModel::Flat`] charges nothing beyond the pipeline
//!   model (ideal memories), while [`MemoryModel::Maupiti`] models a
//!   prefetch buffer refilling after taken control transfers plus a
//!   single-port data SRAM contending with the refill path, with
//!   per-cause stall counters in [`MemStats`] (see [`MemoryModel`] and
//!   [`Cpu::set_memory_model`]);
//! * register ABI-name constants in [`reg`] used by the kernel code
//!   generator in `pcount-kernels`.
//!
//! # Example
//!
//! ```
//! use pcount_isa::{reg, Cpu, Instr};
//!
//! let program = vec![
//!     Instr::Addi { rd: reg::A0, rs1: reg::ZERO, imm: 21 },
//!     Instr::Add { rd: reg::A0, rs1: reg::A0, rs2: reg::A0 },
//!     Instr::Ebreak,
//! ];
//! let mut cpu = Cpu::new_default();
//! cpu.load_program(&program).unwrap();
//! cpu.run(1_000).unwrap();
//! assert_eq!(cpu.reg(reg::A0), 42);
//! ```

mod block;
mod cpu;
mod engine;
mod fusion;
mod instr;
mod mem_model;
mod memory;
mod pipeline;

pub use cpu::{hot_blocks_json, Cpu, HotBlock, RunSummary, SimError, Trace};
pub use engine::ExecMode;
pub use instr::{decode, BranchOp, Decoded, Instr, LoadOp, StoreOp};
pub use mem_model::{MaupitiMemConfig, MemStats, MemoryModel};
pub use memory::{Memory, DMEM_BASE, IMEM_BASE};
pub use pipeline::PipelineStats;

/// Register indices by RISC-V ABI name.
pub mod reg {
    /// Hard-wired zero.
    pub const ZERO: u8 = 0;
    /// Return address.
    pub const RA: u8 = 1;
    /// Stack pointer.
    pub const SP: u8 = 2;
    /// Global pointer.
    pub const GP: u8 = 3;
    /// Thread pointer.
    pub const TP: u8 = 4;
    /// Temporary 0.
    pub const T0: u8 = 5;
    /// Temporary 1.
    pub const T1: u8 = 6;
    /// Temporary 2.
    pub const T2: u8 = 7;
    /// Saved register 0 / frame pointer.
    pub const S0: u8 = 8;
    /// Saved register 1.
    pub const S1: u8 = 9;
    /// Argument/return 0.
    pub const A0: u8 = 10;
    /// Argument/return 1.
    pub const A1: u8 = 11;
    /// Argument 2.
    pub const A2: u8 = 12;
    /// Argument 3.
    pub const A3: u8 = 13;
    /// Argument 4.
    pub const A4: u8 = 14;
    /// Argument 5.
    pub const A5: u8 = 15;
    /// Argument 6.
    pub const A6: u8 = 16;
    /// Argument 7.
    pub const A7: u8 = 17;
    /// Saved register 2.
    pub const S2: u8 = 18;
    /// Saved register 3.
    pub const S3: u8 = 19;
    /// Saved register 4.
    pub const S4: u8 = 20;
    /// Saved register 5.
    pub const S5: u8 = 21;
    /// Saved register 6.
    pub const S6: u8 = 22;
    /// Saved register 7.
    pub const S7: u8 = 23;
    /// Saved register 8.
    pub const S8: u8 = 24;
    /// Saved register 9.
    pub const S9: u8 = 25;
    /// Saved register 10.
    pub const S10: u8 = 26;
    /// Saved register 11.
    pub const S11: u8 = 27;
    /// Temporary 3.
    pub const T3: u8 = 28;
    /// Temporary 4.
    pub const T4: u8 = 29;
    /// Temporary 5.
    pub const T5: u8 = 30;
    /// Temporary 6.
    pub const T6: u8 = 31;
}
