//! Functions, basic blocks, and modules.

use crate::inst::Inst;
use crate::types::{BlockId, FuncId, PredReg, VReg, Width};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on a predicate register; lanes where the
    /// predicate (negated if `neg`) holds go to `then_bb`, others to
    /// `else_bb`. May diverge within a warp.
    Branch { pred: PredReg, neg: bool, then_bb: BlockId, else_bb: BlockId },
    /// Return from a device function.
    Ret,
    /// Terminate the thread (kernels only).
    Exit,
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (a, b) = match self {
            Terminator::Jump(t) => (Some(*t), None),
            Terminator::Branch { then_bb, else_bb, .. } => (Some(*then_bb), Some(*else_bb)),
            Terminator::Ret | Terminator::Exit => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicBlock {
    pub insts: Vec<Inst>,
    pub term: Terminator,
}

impl BasicBlock {
    /// An empty block falling through to `target`.
    pub fn jump_to(target: BlockId) -> Self {
        BasicBlock { insts: Vec::new(), term: Terminator::Jump(target) }
    }
}

/// Whether a function is a kernel entry or a callable device function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FuncKind {
    /// Grid entry point; terminates with `Exit`.
    Kernel,
    /// Device function; terminates with `Ret`, takes `params`, returns
    /// `ret_width` values.
    Device,
}

/// A function: blocks, virtual-register table, parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    pub name: String,
    pub kind: FuncKind,
    /// Width of each virtual register, indexed by `VReg.0`.
    pub vreg_widths: Vec<Width>,
    /// Device-function value parameters (bound on entry from the caller's
    /// `CallInfo::args`, in order). Empty for kernels — kernels read
    /// launch parameters through `Operand::Param`.
    pub params: Vec<VReg>,
    /// Device-function return registers (read by the caller into
    /// `CallInfo::rets`). Empty for kernels.
    pub rets: Vec<VReg>,
    /// Basic blocks; `BlockId(0)` is the entry.
    pub blocks: Vec<BasicBlock>,
}

impl Function {
    /// Create an empty function with a single `Exit`/`Ret` block.
    pub fn new(name: impl Into<String>, kind: FuncKind) -> Self {
        let term = match kind {
            FuncKind::Kernel => Terminator::Exit,
            FuncKind::Device => Terminator::Ret,
        };
        Function {
            name: name.into(),
            kind,
            vreg_widths: Vec::new(),
            params: Vec::new(),
            rets: Vec::new(),
            blocks: vec![BasicBlock { insts: Vec::new(), term }],
        }
    }

    /// Allocate a fresh virtual register of the given width.
    pub fn new_vreg(&mut self, width: Width) -> VReg {
        let r = VReg(self.vreg_widths.len() as u32);
        self.vreg_widths.push(width);
        r
    }

    /// Width of a virtual register.
    ///
    /// # Panics
    /// Panics if the register was not created by [`Function::new_vreg`].
    #[inline]
    pub fn width(&self, r: VReg) -> Width {
        self.vreg_widths[r.0 as usize]
    }

    /// Number of virtual registers.
    #[inline]
    pub fn num_vregs(&self) -> usize {
        self.vreg_widths.len()
    }

    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Append a new empty block (terminated by `Jump` to itself as a
    /// placeholder — callers must set the real terminator).
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock::jump_to(id));
        id
    }

    /// Shared access to a block.
    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to a block.
    #[inline]
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.0 as usize]
    }

    /// Iterate over `(BlockId, &BasicBlock)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total static instruction count (excluding terminators).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Static `Call` sites, in block order.
    pub fn call_sites(&self) -> Vec<(BlockId, usize, FuncId)> {
        let mut out = Vec::new();
        for (bid, b) in self.iter_blocks() {
            for (i, inst) in b.insts.iter().enumerate() {
                if let crate::inst::Opcode::Call(f) = inst.op {
                    out.push((bid, i, f));
                }
            }
        }
        out
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {}({:?}) -> {:?} {{",
            match self.kind {
                FuncKind::Kernel => "kernel",
                FuncKind::Device => "device",
            },
            self.name,
            self.params,
            self.rets
        )?;
        for (bid, b) in self.iter_blocks() {
            writeln!(f, "{bid}:")?;
            for i in &b.insts {
                writeln!(f, "    {i}")?;
            }
            writeln!(f, "    {:?}", b.term)?;
        }
        writeln!(f, "}}")
    }
}

/// A module: a kernel plus the device functions it (transitively) calls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    pub funcs: Vec<Function>,
    /// The kernel entry function.
    pub entry: FuncId,
    /// Bytes of user-declared shared memory per thread block (the
    /// `__shared__` arrays of the original program). The allocator may
    /// place additional per-thread slots above this region.
    pub user_smem_bytes: u32,
}

impl Module {
    /// A module containing a single kernel.
    pub fn new(kernel: Function) -> Self {
        assert_eq!(kernel.kind, FuncKind::Kernel, "module entry must be a kernel");
        Module { funcs: vec![kernel], entry: FuncId(0), user_smem_bytes: 0 }
    }

    /// Add a device function, returning its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(f);
        id
    }

    /// Shared access to a function.
    #[inline]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Mutable access to a function.
    #[inline]
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.0 as usize]
    }

    /// The kernel entry function.
    #[inline]
    pub fn kernel(&self) -> &Function {
        self.func(self.entry)
    }

    /// Iterate `(FuncId, &Function)`.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs.iter().enumerate().map(|(i, f)| (FuncId(i as u32), f))
    }

    /// A stable structural fingerprint of the module, for content-keyed
    /// caches (workload builders construct a fresh `Module` per call, so
    /// pointer identity is useless as a cache key). Hashes the complete
    /// `Debug` rendering — which covers every instruction, operand, and
    /// module attribute — through the streaming FNV-1a writer
    /// ([`crate::fnv::Fnv64`]), so equal modules always agree, distinct
    /// ones collide only with ~2^-64 probability, and the value does
    /// not change with the toolchain.
    pub fn fingerprint(&self) -> u64 {
        crate::fnv::Fnv64::of_debug(self)
    }

    /// Total static `Call` instructions across all functions — the
    /// "Func" column of the paper's Table 2.
    pub fn static_call_count(&self) -> usize {
        self.funcs.iter().map(|f| f.call_sites().len()).sum()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, func) in self.iter_funcs() {
            writeln!(f, "; {id}")?;
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, Opcode, Operand};

    #[test]
    fn new_function_has_entry_block() {
        let f = Function::new("k", FuncKind::Kernel);
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.block(BlockId(0)).term, Terminator::Exit);
    }

    #[test]
    fn vreg_widths_tracked() {
        let mut f = Function::new("k", FuncKind::Kernel);
        let a = f.new_vreg(Width::W32);
        let b = f.new_vreg(Width::W64);
        assert_eq!(f.width(a), Width::W32);
        assert_eq!(f.width(b), Width::W64);
        assert_eq!(f.num_vregs(), 2);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            pred: PredReg(0),
            neg: false,
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(t.successors().collect::<Vec<_>>(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Ret.successors().count(), 0);
    }

    #[test]
    fn module_call_count() {
        let mut k = Function::new("k", FuncKind::Kernel);
        let mut m = {
            let _ = k.new_vreg(Width::W32);
            Module::new(k)
        };
        let dev = m.add_func(Function::new("d", FuncKind::Device));
        let mut call = Inst::new(Opcode::Call(dev), None, vec![]);
        call.call = Some(crate::inst::CallInfo { args: vec![Operand::Imm(0)], rets: vec![] });
        m.func_mut(FuncId(0)).block_mut(BlockId(0)).insts.push(call);
        assert_eq!(m.static_call_count(), 1);
    }
}
