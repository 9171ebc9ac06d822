//! # orion-kir — kernel intermediate representation
//!
//! A SASS-like IR for the Orion occupancy-tuning reproduction
//! (Hayes et al., *Middleware 2016*). It provides:
//!
//! * typed virtual registers, including *wide* 64/96/128-bit values that
//!   must occupy consecutive aligned physical registers;
//! * functions, basic blocks, calls, barriers, and predicated execution;
//! * CFG analyses (dominators, dominance frontiers, post-dominators);
//! * pruned-SSA construction and φ-web coalescing (the paper's §3.2
//!   pipeline front half);
//! * live-variable analysis and the *max-live* metric (§3.3);
//! * an untimed reference interpreter used as the semantic oracle;
//! * a toolchain-stable FNV-1a-64 digest ([`fnv`]);
//! * the machine IR ([`mir`]) produced by the allocator and executed by
//!   the GPU simulator.
//!
//! ```
//! use orion_kir::builder::FunctionBuilder;
//! use orion_kir::function::Module;
//! use orion_kir::inst::Operand;
//! use orion_kir::interp::{Interpreter, LaunchConfig};
//! use orion_kir::types::{MemSpace, SpecialReg, Width};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::kernel("add_one");
//! let tid = b.mov(Operand::Special(SpecialReg::TidX));
//! let addr = b.imad(tid, Operand::Imm(4), Operand::Param(0));
//! let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
//! let y = b.iadd(x, Operand::Imm(1));
//! b.st(MemSpace::Global, Width::W32, addr, y, 0);
//! let module = Module::new(b.finish());
//! orion_kir::verify::verify(&module)?;
//!
//! let mut global = vec![0u8; 16];
//! Interpreter::new(&module, &[0]).run(LaunchConfig { grid: 1, block: 4 }, &mut global)?;
//! assert_eq!(global[0], 1);
//! # Ok(())
//! # }
//! ```

pub mod bitset;
pub mod builder;
pub mod callgraph;
pub mod cfg;
pub mod fnv;
pub mod function;
pub mod inst;
pub mod interp;
pub mod liveness;
pub mod mir;
pub mod mir_verify;
pub mod sem;
pub mod ssa;
pub mod types;
pub mod verify;

pub use function::{BasicBlock, Function, Module, Terminator};
pub use inst::{Cmp, Inst, Opcode, Operand};
pub use types::{BlockId, FuncId, MemSpace, PredReg, SpecialReg, VReg, Width};
