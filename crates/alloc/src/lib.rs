//! # orion-alloc — on-chip memory allocation for occupancy realization
//!
//! Implements §3.2 of *Orion: A Framework for GPU Occupancy Tuning*
//! (Hayes et al., Middleware 2016):
//!
//! * [`interference`] — interference graphs over φ-coalesced webs;
//! * [`chaitin`] — the Figure 4 Chaitin-Briggs variant with wide
//!   (64/96/128-bit) register classes and alignment;
//! * [`stack`] — the compressible stack: movable units, `B_k`
//!   computation, packing, and a parallel-move sequentializer;
//! * [`layout`] — the minimal-move-assignment layout optimizer
//!   (Theorem 1);
//! * [`matching`] — Kuhn-Munkres maximum-weight bipartite matching in
//!   O(M³);
//! * [`pipeline`] — the explicit pass pipeline (normalize → color →
//!   spill → stack-plan → layout → lower → mir-verify) with typed
//!   per-stage artifacts and verified stage boundaries;
//! * [`realize`] — the end-to-end entry point producing a machine-code
//!   [`orion_kir::mir::MModule`] for a given per-thread slot budget.
//!
//! ```
//! use orion_alloc::realize::{allocate, AllocOptions, SlotBudget};
//! use orion_kir::builder::FunctionBuilder;
//! use orion_kir::function::Module;
//! use orion_kir::inst::Operand;
//! use orion_kir::types::{MemSpace, SpecialReg, Width};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::kernel("axpy");
//! let tid = b.mov(Operand::Special(SpecialReg::TidX));
//! let addr = b.imad(tid, Operand::Imm(4), Operand::Param(0));
//! let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
//! let y = b.fmul(x, Operand::Imm(0x40000000)); // *2.0f
//! b.st(MemSpace::Global, Width::W32, addr, y, 0);
//! let module = Module::new(b.finish());
//!
//! let budget = SlotBudget { reg_slots: 16, smem_slots: 0 };
//! let out = allocate(&module, budget, &AllocOptions::default())?;
//! assert!(out.machine.regs_per_thread <= 16);
//! # Ok(())
//! # }
//! ```

pub mod chaitin;
pub mod interference;
pub mod layout;
pub mod matching;
pub mod pipeline;
pub mod realize;
pub mod stack;

pub use pipeline::{Pass, Pipeline};
pub use realize::{
    allocate, allocate_verified, AllocError, AllocOptions, AllocReport, Allocated, SlotBudget,
};
