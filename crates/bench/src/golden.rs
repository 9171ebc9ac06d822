//! Golden fixtures: the recorded outcomes the allocator, the simulator
//! and the tuning walk must keep reproducing.
//!
//! Three committed files under `crates/bench/golden/` pin the three
//! computations Orion's results rest on:
//!
//! * [`Fixture::Compile`] — one entry per (workload × slot budget ×
//!   allocator ablation), plus two hand-built modules: the
//!   [`AllocReport`] as readable facts, and a digest of the machine code
//!   and report;
//! * [`Fixture::Launch`] — one entry per (kernel × occupancy × fault
//!   seed), simulated at `parallelism: 1`: the cycles or the error
//!   variant, and a digest of the [`RunResult`], the final global
//!   memory and (under faults) the injector's tally;
//! * [`Fixture::Walk`] — one entry per seeded measurement stream of the
//!   Figure 9 walk, over synthetic candidates and over real simulated
//!   launches: the selection, convergence point, total cycles, decision
//!   and launch counts, and a digest of the full outcome or its error.
//!
//! Every digest is [`Fnv64`] over the value's JSON rendering (or its
//! `Debug` rendering for the error enums, which do not serialize), so
//! it does not change with the toolchain.
//!
//! The `golden` integration test compares freshly computed entries with
//! the files and never writes; `cargo run --release -p orion-bench --bin
//! bless` rewrites the files and prints `case: old → new` for every
//! entry that changed. Case order is fixed by the generators, so
//! re-blessing unchanged code is byte-identical.

use crate::app::{compile_workload, App};
use crate::error::BenchError;
use orion_alloc::realize::{
    allocate, AllocError, AllocOptions, AllocReport, Allocated, SlotBudget,
};
use orion_core::backend::SimBackend;
use orion_core::compiler::{
    compile, sweep, CompiledKernel, Direction, KernelVersion, TuningConfig,
};
use orion_core::error::OrionError;
use orion_core::policy::{BanditConfig, PolicyKind};
use orion_core::resilient::{ResiliencePolicy, ResilienceStats};
use orion_core::runtime::TuneDecision;
use orion_core::session::{SessionOutcome, TuningSession};
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::faults::{splitmix64, FaultInjector, FaultPlan, FaultSnapshot};
use orion_gpusim::sim::{run_launch_opts, LaunchOptions, RunResult};
use orion_gpusim::SimError;
use orion_kir::builder::{build_fdiv_device, FunctionBuilder};
use orion_kir::fnv::Fnv64;
use orion_kir::function::Module;
use orion_kir::inst::{Cmp, Operand};
use orion_kir::mir::MModule;
use orion_kir::types::{FuncId, MemSpace, PredReg, SpecialReg, Width};
use orion_workloads::{all_workloads, by_name, Workload};
use serde::Value;
use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::rc::Rc;

/// The three fixture files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    /// Allocator output per (module × budget × ablation).
    Compile,
    /// Simulated launches per (kernel × occupancy × fault seed).
    Launch,
    /// Tuning walks per seeded measurement stream.
    Walk,
}

impl Fixture {
    /// Every fixture, in file order.
    pub const ALL: [Fixture; 3] = [Fixture::Compile, Fixture::Launch, Fixture::Walk];

    /// The file stem.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fixture::Compile => "compile",
            Fixture::Launch => "launch",
            Fixture::Walk => "walk",
        }
    }

    /// The committed file.
    #[must_use]
    pub fn path(self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{}.json", self.name()))
    }

    /// Every case of this fixture, in file order. Building the list runs
    /// nothing; [`record`] does.
    #[must_use]
    pub fn cases(self) -> Vec<Case> {
        match self {
            Fixture::Compile => compile_cases(),
            Fixture::Launch => launch_cases(),
            Fixture::Walk => walk_cases(),
        }
    }
}

/// One recorded value: a few readable facts and a digest of the whole.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    /// Human-readable facts, in rendering order.
    facts: Vec<(&'static str, Value)>,
    /// FNV-1a-64 over the full serialized value.
    digest: u64,
}

impl Entry {
    /// The one-line JSON rendering the fixture files store.
    fn render(&self) -> String {
        let mut fields: Vec<(String, Value)> =
            self.facts.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect();
        fields.push(("digest".to_string(), Value::Str(format!("{:016x}", self.digest))));
        serde_json::to_string(&Value::Map(fields)).expect("a Value always serializes")
    }
}

/// A named computation whose outcome a fixture records.
pub struct Case {
    /// Unique within its fixture.
    pub name: String,
    /// Simulates real workloads: too slow for a debug build.
    pub heavy: bool,
    run: Box<dyn Fn() -> Entry>,
}

impl Case {
    fn new(name: impl Into<String>, heavy: bool, run: impl Fn() -> Entry + 'static) -> Self {
        Case { name: name.into(), heavy, run: Box::new(run) }
    }

    /// Compute the case's entry.
    fn run(&self) -> Entry {
        (self.run)()
    }
}

/// `(case, rendered entry)` pairs, in file order.
pub type Recorded = Vec<(String, String)>;

/// Run `cases` and render their entries.
#[must_use]
pub fn record(cases: &[Case]) -> Recorded {
    cases.iter().map(|c| (c.name.clone(), c.run().render())).collect()
}

/// The fixture file text for `entries`: one entry per line.
#[must_use]
pub fn render(entries: &Recorded) -> String {
    let mut out = String::from("{\n");
    for (i, (name, entry)) in entries.iter().enumerate() {
        let key = serde_json::to_string(name.as_str()).expect("a string always serializes");
        let sep = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(out, "  {key}: {entry}{sep}");
    }
    out.push_str("}\n");
    out
}

/// Parse fixture file text back into `(case, rendered entry)` pairs.
///
/// # Errors
/// [`std::io::ErrorKind::InvalidData`] when `text` is not a JSON object.
fn parse(text: &str) -> std::io::Result<Recorded> {
    let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let doc: Value = serde_json::from_str(text).map_err(|e| invalid(e.to_string()))?;
    let map = doc.as_map().ok_or_else(|| invalid("not a JSON object".to_string()))?;
    Ok(map
        .iter()
        .map(|(name, v)| {
            (name.clone(), serde_json::to_string(v).expect("a Value always serializes"))
        })
        .collect())
}

/// Read a committed fixture file.
///
/// # Errors
/// [`BenchError`] naming the path when it cannot be read or parsed.
pub fn read(fixture: Fixture) -> Result<Recorded, BenchError> {
    let path = fixture.path();
    std::fs::read_to_string(&path)
        .and_then(|text| parse(&text))
        .map_err(|e| BenchError::io("golden fixture", path, e))
}

/// One `case: old → new` line per case whose entry differs, in `fresh`
/// order, then one per recorded case `fresh` lacks.
#[must_use]
pub fn diff(recorded: &Recorded, fresh: &Recorded) -> Vec<String> {
    let old = |name: &str| recorded.iter().find(|(n, _)| n == name).map(|(_, e)| e.as_str());
    let mut out: Vec<String> = fresh
        .iter()
        .filter_map(|(name, new)| match old(name) {
            Some(o) if o == new => None,
            o => Some(format!("{name}: {} → {new}", o.unwrap_or("(none)"))),
        })
        .collect();
    for (name, o) in recorded {
        if !fresh.iter().any(|(n, _)| n == name) {
            out.push(format!("{name}: {o} → (none)"));
        }
    }
    out
}

// ------------------------------------------------------------ digests

fn digest(parts: impl FnOnce(&mut Fnv64)) -> u64 {
    let mut h = Fnv64::new();
    parts(&mut h);
    h.finish()
}

fn json(h: &mut Fnv64, value: &impl serde::Serialize) {
    let _ = h.write_str(&serde_json::to_string(value).expect("a Value always serializes"));
}

fn debug(h: &mut Fnv64, value: &impl fmt::Debug) {
    let _ = write!(h, "{value:?}");
}

/// The variant name of an error enum: its `Debug` rendering up to the
/// first non-identifier character.
fn variant(e: &impl fmt::Debug) -> String {
    let s = format!("{e:?}");
    s.split(|c: char| !c.is_alphanumeric() && c != '_').next().unwrap_or_default().to_string()
}

/// The variant of an orion error's root cause, naming the simulator
/// error inside a `Sim` one.
fn root_cause(e: &OrionError) -> String {
    match e.root_cause() {
        OrionError::Sim(s) => format!("Sim({})", variant(s)),
        other => variant(other),
    }
}

fn compile_entry(out: &Result<Allocated, AllocError>) -> Entry {
    match out {
        Ok(a) => Entry {
            facts: vec![("report", serde_json::to_value(&a.report).expect("report"))],
            digest: digest(|h| {
                json(h, &a.machine);
                json(h, &a.report);
            }),
        },
        Err(e) => Entry {
            facts: vec![("error", Value::Str(variant(e)))],
            digest: digest(|h| debug(h, e)),
        },
    }
}

/// The entry of one launch: its outcome, the global memory it left, and
/// the fault tally when it ran under an injector.
fn launch_entry(
    out: &Result<RunResult, SimError>,
    global: &[u8],
    faults: Option<&FaultSnapshot>,
) -> Entry {
    let facts = match out {
        Ok(r) => vec![("cycles", Value::U64(r.cycles))],
        Err(e) => vec![("error", Value::Str(variant(e)))],
    };
    Entry {
        facts,
        digest: digest(|h| {
            match out {
                Ok(r) => json(h, r),
                Err(e) => debug(h, e),
            }
            h.write(global);
            if let Some(s) = faults {
                json(h, s);
            }
        }),
    }
}

/// What a walk reports, whichever driver ran it: the fields of a
/// session outcome, with the failure accounting only for walks that
/// run off [`ResiliencePolicy::PAPER`].
#[derive(Debug, Clone, PartialEq)]
struct Walk {
    selected: usize,
    iterations: Vec<(usize, u64)>,
    converged_after: usize,
    total_cycles: u64,
    decisions: Vec<TuneDecision>,
    /// Failure accounting; `None` for paper walks, whose fixture
    /// entries pin the outcome without it.
    stats: Option<ResilienceStats>,
}

impl Walk {
    /// The reported fields of `o`; a paper walk's failure accounting is
    /// left out.
    fn of(o: SessionOutcome, resilient: bool) -> Self {
        Walk {
            selected: o.selected,
            iterations: o.iterations,
            converged_after: o.converged_after,
            total_cycles: o.total_cycles,
            decisions: o.decisions,
            stats: resilient.then_some(o.stats),
        }
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("selected", Value::U64(self.selected as u64)),
            ("iterations", serde_json::to_value(&self.iterations).expect("iterations")),
            ("converged_after", Value::U64(self.converged_after as u64)),
            ("total_cycles", Value::U64(self.total_cycles)),
            ("decisions", serde_json::to_value(&self.decisions).expect("decisions")),
        ];
        if let Some(s) = &self.stats {
            fields.push(("stats", serde_json::to_value(s).expect("stats")));
        }
        Value::object(fields)
    }
}

fn walk_entry(out: &Result<Walk, OrionError>, launches: u64) -> Entry {
    match out {
        Ok(w) => Entry {
            facts: vec![
                ("selected", Value::U64(w.selected as u64)),
                ("converged_after", Value::U64(w.converged_after as u64)),
                ("total_cycles", Value::U64(w.total_cycles)),
                ("decisions", Value::U64(w.decisions.len() as u64)),
                ("launches", Value::U64(launches)),
            ],
            digest: digest(|h| json(h, &w.to_value())),
        },
        Err(e) => Entry {
            facts: vec![("error", Value::Str(root_cause(e))), ("launches", Value::U64(launches))],
            digest: digest(|h| debug(h, e)),
        },
    }
}

// ------------------------------------------------- recording engines
//
// The one place each fixture meets the code it pins.

/// Launch options every launch fixture records at.
fn serial() -> LaunchOptions {
    LaunchOptions { parallelism: 1, ..LaunchOptions::default() }
}

/// Which session a walk case runs: its resilience policy and its
/// search rule.
#[derive(Debug, Clone, Copy)]
struct Driver(ResiliencePolicy, PolicyKind);

/// The paper's exact walk.
const PAPER: Driver = Driver(ResiliencePolicy::PAPER, PolicyKind::PaperWalk);

fn drive(
    driver: Driver,
    kernel: &str,
    ck: &CompiledKernel,
    iterations: u32,
    threshold: f64,
    mut run: impl FnMut(&KernelVersion) -> Result<u64, OrionError>,
) -> Entry {
    let mut launches = 0u64;
    let counted = |v: &KernelVersion| {
        launches += 1;
        run(v)
    };
    let Driver(resilience, search) = driver;
    let session = TuningSession::with_policy(kernel, ck, iterations, threshold, resilience, search);
    let resilient = resilience != ResiliencePolicy::PAPER;
    let out = session.drive(counted).map(|o| Walk::of(o, resilient));
    walk_entry(&out, launches)
}

// ------------------------------------------------------ compile cases

/// The allocator ablations of Figure 5.
const ABLATIONS: [(&str, AllocOptions); 3] = [
    ("compress+layout", AllocOptions { compress_stack: true, optimize_layout: true }),
    ("compress", AllocOptions { compress_stack: true, optimize_layout: false }),
    ("padded", AllocOptions { compress_stack: false, optimize_layout: false }),
];

/// The tier-1 workloads the fixtures record.
const WORKLOADS: [&str; 3] = ["matrixMul", "backprop", "hotspot"];

fn budget_label(b: SlotBudget) -> String {
    format!("r{}s{}", b.reg_slots, b.smem_slots)
}

/// `k`: a kernel that stores one thread-indexed value.
fn simple_module() -> Module {
    let mut b = FunctionBuilder::kernel("k");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let a = b.imad(tid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, a, 0);
    let y = b.iadd(x, Operand::Imm(5));
    b.st(MemSpace::Global, Width::W32, a, y, 0);
    Module::new(b.finish())
}

/// `k`: a kernel keeping a value live across a call to a float-divide
/// device function.
fn call_module() -> Module {
    let kb = FunctionBuilder::kernel("k");
    let mut m = Module::new(kb.finish());
    let fdiv = m.add_func(build_fdiv_device());
    let mut kb = FunctionBuilder::kernel("k");
    let keep = kb.mov_i32(11);
    let x = kb.mov_f32(10.0);
    let y = kb.mov_f32(4.0);
    let q = kb.call(fdiv, vec![x.into(), y.into()], &[Width::W32]);
    let s = kb.iadd(keep, q[0]);
    kb.st(MemSpace::Global, Width::W32, Operand::Imm(0), s, 0);
    m.funcs[0] = kb.finish();
    m
}

fn compile_cases() -> Vec<Case> {
    const BUDGETS: [SlotBudget; 3] = [
        SlotBudget { reg_slots: 16, smem_slots: 0 },
        SlotBudget { reg_slots: 32, smem_slots: 0 },
        SlotBudget { reg_slots: 24, smem_slots: 8 },
    ];
    let mut cases = Vec::new();
    let mut add = |name: String, m: Rc<Module>, budget: SlotBudget, opts: AllocOptions| {
        cases.push(Case::new(name, false, move || compile_entry(&allocate(&m, budget, &opts))));
    };
    for w in all_workloads() {
        let (name, m) = (w.name, Rc::new(w.module));
        for budget in BUDGETS {
            for (label, opts) in ABLATIONS {
                add(format!("{name}/{}/{label}", budget_label(budget)), m.clone(), budget, opts);
            }
        }
    }
    for (name, m) in [("simple", simple_module()), ("call", call_module())] {
        let m = Rc::new(m);
        for (label, opts) in ABLATIONS {
            for regs in [4u16, 8, 32] {
                let budget = SlotBudget { reg_slots: regs, smem_slots: 4 };
                add(format!("{name}/{}/{label}", budget_label(budget)), m.clone(), budget, opts);
            }
        }
    }
    cases
}

// ------------------------------------------------------- launch cases

fn compile_micro(m: &Module, regs: u16, smem: u16) -> MModule {
    allocate(m, SlotBudget { reg_slots: regs, smem_slots: smem }, &AllocOptions::default())
        .expect("micro kernel allocates")
        .machine
}

/// `out[gid] = f(in[gid])` with `flops` dependent FMAs: latency-bound
/// warps whose ready times interleave, so the scheduler resolves many
/// ready-time ties.
fn streaming_kernel(flops: usize) -> Module {
    let mut b = FunctionBuilder::kernel("stream");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let mut acc = x;
    for _ in 0..flops {
        acc = b.ffma(acc, x, Operand::Imm(0x3f80_0000));
    }
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(1));
    b.st(MemSpace::Global, Width::W32, out, acc, 0);
    Module::new(b.finish())
}

/// Shared-memory exchange across a barrier: barrier release puts a
/// whole CTA's warps back in the ready queue at once.
fn barrier_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("barrier");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let saddr = b.imul(tid, Operand::Imm(4));
    b.st(MemSpace::Shared, Width::W32, saddr, tid, 0);
    b.bar();
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let last = b.isub(nt, Operand::Imm(1));
    let ridx = b.isub(last, tid);
    let raddr = b.imul(ridx, Operand::Imm(4));
    let v = b.ld(MemSpace::Shared, Width::W32, raddr, 0);
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let gid = b.imad(cta, nt, tid);
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    b.st(MemSpace::Global, Width::W32, out, v, 0);
    let mut m = Module::new(b.finish());
    m.user_smem_bytes = 4 * 128;
    m
}

/// A full-warp divergent branch with unbalanced arms: odd and even
/// lanes take different paths (3x+1 vs x/2) and reconverge at the join.
fn divergent_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("diverge");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let bit = b.and(x, Operand::Imm(1));
    b.isetp(Cmp::Ne, bit, Operand::Imm(0), PredReg(0));
    let odd = b.new_block();
    let even = b.new_block();
    let join = b.new_block();
    b.branch(PredReg(0), false, odd, even);
    b.switch_to(odd);
    let three = b.imad(x, Operand::Imm(3), Operand::Imm(1));
    b.jump(join);
    b.switch_to(even);
    let half = b.shr(x, Operand::Imm(1));
    b.jump(join);
    b.switch_to(join);
    let res = b.sel(PredReg(0), three, half);
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(1));
    b.st(MemSpace::Global, Width::W32, out, res, 0);
    b.exit();
    Module::new(b.finish())
}

/// Worst-case shared-memory banking: every lane of a warp hits the same
/// bank at a distinct word (`word = lane*32 + warp`), a 32-way conflict
/// on store and load. Words are distinct per thread, so no cross-warp
/// write race makes the result order-dependent.
fn bank_conflict_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("conflict");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let lane = b.mov(Operand::Special(SpecialReg::LaneId));
    let warp = b.mov(Operand::Special(SpecialReg::WarpId));
    let word = b.imad(lane, Operand::Imm(32), warp);
    let saddr = b.imul(word, Operand::Imm(4));
    b.st(MemSpace::Shared, Width::W32, saddr, tid, 0);
    b.bar();
    let v = b.ld(MemSpace::Shared, Width::W32, saddr, 0);
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    b.st(MemSpace::Global, Width::W32, out, v, 0);
    let mut m = Module::new(b.finish());
    m.user_smem_bytes = 4 * 32 * 32;
    m
}

/// `out[gid] = in[gid]² + gid`: a load and a store per lane, small
/// enough for debug builds.
pub fn tiny_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("tiny");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let y = b.imad(x, x, gid);
    b.st(MemSpace::Global, Width::W32, addr, y, 0);
    Module::new(b.finish())
}

/// A launch of a hand-built kernel from zeroed global memory.
#[derive(Clone)]
pub struct MicroLaunch {
    /// The device simulated.
    pub dev: DeviceSpec,
    machine: Rc<MModule>,
    launch: Launch,
    params: Vec<u32>,
    /// Global memory size in bytes.
    bytes: usize,
    /// Driver-side shared-memory padding per block.
    extra_smem: u32,
}

impl MicroLaunch {
    /// Run from zeroed memory under `opts` (padding applied).
    pub fn run(&self, opts: LaunchOptions) -> (Result<RunResult, SimError>, Vec<u8>) {
        let mut global = vec![0u8; self.bytes];
        let opts = opts.with_extra_smem(self.extra_smem);
        let r =
            run_launch_opts(&self.dev, &self.machine, self.launch, &self.params, &mut global, opts);
        (r, global)
    }
}

/// The fault-free hand-built launches of the launch fixture, by case
/// name; the fan-out suite reruns them at higher parallelism.
#[must_use]
pub fn micro_launches() -> Vec<(String, MicroLaunch)> {
    let gtx = DeviceSpec::gtx680();
    let c2075 = DeviceSpec::c2075();
    // `(in, out)` streams over `n` threads, or one output array.
    let two = |l: Launch| (vec![0, 4 * l.grid * l.block], 8 * (l.grid * l.block) as usize);
    let one = |l: Launch| (vec![0], 4 * (l.grid * l.block) as usize);
    let stream6 = Rc::new(compile_micro(&streaming_kernel(6), 16, 0));
    let diverge = Rc::new(compile_micro(&divergent_kernel(), 16, 0));
    let conflict = Rc::new(compile_micro(&bank_conflict_kernel(), 16, 0));
    let mut out = Vec::new();
    let mut add = |name: &str, dev: &DeviceSpec, machine: &Rc<MModule>, launch, io, smem| {
        let (params, bytes) = io;
        out.push((
            name.to_string(),
            MicroLaunch {
                dev: dev.clone(),
                machine: machine.clone(),
                launch,
                params,
                bytes,
                extra_smem: smem,
            },
        ));
    };
    let l = Launch { grid: 24, block: 256 };
    add("stream6/gtx680/g24b256", &gtx, &stream6, l, two(l), 0);
    let l = Launch { grid: 6, block: 128 };
    let barrier = Rc::new(compile_micro(&barrier_kernel(), 16, 0));
    add("barrier/c2075/g6b128", &c2075, &barrier, l, one(l), 0);
    // A tight slot budget forces spills: local-memory readiness
    // competes with ALU readiness.
    let l = Launch { grid: 16, block: 128 };
    let pressure = Rc::new(compile_micro(&streaming_kernel(8), 4, 2));
    add("stream8-r4s2/gtx680/g16b128", &gtx, &pressure, l, two(l), 0);
    // The output region ends inside block 3, so the launch fails with an
    // out-of-bounds store on SM 3 after SMs 0-2 completed.
    let l = Launch { grid: 16, block: 256 };
    let stream2 = Rc::new(compile_micro(&streaming_kernel(2), 16, 0));
    add("stream2/gtx680/g16b256/truncated", &gtx, &stream2, l, (two(l).0, 20000), 0);
    for smem in [0u32, 24 * 1024] {
        let l = Launch { grid: 16, block: 128 };
        add(&format!("stream6/gtx680/g16b128/smem+{smem}"), &gtx, &stream6, l, two(l), smem);
        let l = Launch { grid: 12, block: 128 };
        add(&format!("diverge/gtx680/g12b128/smem+{smem}"), &gtx, &diverge, l, two(l), smem);
        let l = Launch { grid: 8, block: 128 };
        add(&format!("conflict/gtx680/g8b128/smem+{smem}"), &gtx, &conflict, l, one(l), smem);
    }
    let l = Launch { grid: 12, block: 128 };
    add("diverge/c2075/g12b128", &c2075, &diverge, l, two(l), 0);
    out
}

fn launch_cases() -> Vec<Case> {
    let mut cases: Vec<Case> = micro_launches()
        .into_iter()
        .map(|(name, m)| {
            Case::new(name, false, move || {
                let (r, g) = m.run(serial());
                launch_entry(&r, &g, None)
            })
        })
        .collect();

    // Chaos sweep: transients, resource kills, hangs and jitter, one
    // fresh injector per launch.
    let gtx = DeviceSpec::gtx680();
    let chaos_kernels = [
        ("stream4", streaming_kernel(4), Launch { grid: 16, block: 128 }, true),
        ("diverge", divergent_kernel(), Launch { grid: 12, block: 128 }, true),
        ("conflict", bank_conflict_kernel(), Launch { grid: 8, block: 128 }, false),
    ];
    for (name, module, launch, two_arrays) in chaos_kernels {
        let machine = Rc::new(compile_micro(&module, 16, 0));
        let n = launch.grid * launch.block;
        let (params, bytes) = if two_arrays { (vec![0, 4 * n], 8 * n) } else { (vec![0], 4 * n) };
        for seed in [1u64, 7, 42] {
            let (dev, machine, params) = (gtx.clone(), machine.clone(), params.clone());
            cases.push(Case::new(format!("{name}/gtx680/chaos{seed}"), false, move || {
                let inj = FaultInjector::new(FaultPlan::chaos(seed, 0.5, 0.05));
                let mut global = vec![0u8; bytes as usize];
                let opts =
                    LaunchOptions { cycle_budget: Some(2_000_000), faults: inj.draw(), ..serial() };
                let r = run_launch_opts(&dev, &machine, launch, &params, &mut global, opts);
                launch_entry(&r, &global, Some(&inj.snapshot()))
            }));
        }
    }

    // 24 launches per seed from one injector: per-launch draws, each
    // from fresh memory.
    let tiny = Rc::new(compile_micro(&tiny_kernel(), 12, 0));
    for seed in [3u64, 17, 99] {
        let (dev, machine) = (gtx.clone(), tiny.clone());
        cases.push(Case::new(format!("tiny/gtx680/chaos{seed}x24"), false, move || {
            tiny_sequence_entry(&dev, &machine, seed)
        }));
    }

    // Every workload at the lowest and highest occupancy of its sweep
    // (serially, so racy kernels record one deterministic outcome), and
    // the tier-1 workloads at two allocator budgets.
    for name in all_workloads().iter().map(|w| w.name) {
        for end in ["first", "last"] {
            cases.push(Case::new(format!("{name}/gtx680/sweep-{end}"), true, move || {
                let w = by_name(name).expect("workload");
                let dev = DeviceSpec::gtx680();
                let sweep = sweep(&w.module, &dev, w.block).expect("sweep");
                let v = if end == "first" { sweep.first() } else { sweep.last() }.expect("version");
                let mut global = w.init_global.clone();
                let r = SimBackend::new(dev).run(v, w.launch(), &w.params, &mut global, serial());
                launch_entry(&r, &global, None)
            }));
        }
    }
    for name in WORKLOADS {
        for regs in [16u16, 32] {
            let budget = SlotBudget { reg_slots: regs, smem_slots: 0 };
            cases.push(Case::new(
                format!("{name}/gtx680/{}", budget_label(budget)),
                true,
                move || {
                    let w = by_name(name).expect("workload");
                    let a =
                        allocate(&w.module, budget, &AllocOptions::default()).expect("allocate");
                    workload_launch(&DeviceSpec::gtx680(), &w, &a.machine)
                },
            ));
        }
    }
    cases
}

/// The outcomes, memories and fault tally of 24 launches of `machine`
/// drawn from one chaos injector.
fn tiny_sequence_entry(dev: &DeviceSpec, machine: &MModule, seed: u64) -> Entry {
    let launch = Launch { grid: 16, block: 128 };
    let injector = FaultInjector::new(FaultPlan::chaos(seed, 0.3, 0.05));
    let mut cycles = 0u64;
    let mut errors = Vec::new();
    let mut h = Fnv64::new();
    for i in 0..24 {
        let mut global = vec![0u8; 4 * 16 * 128];
        let opts = LaunchOptions { faults: injector.draw(), ..serial() };
        let r = run_launch_opts(dev, machine, launch, &[0], &mut global, opts);
        match &r {
            Ok(r) => {
                cycles += r.cycles;
                json(&mut h, r);
            }
            Err(e) => {
                errors.push(Value::Str(format!("{}@{i}", variant(e))));
                debug(&mut h, e);
            }
        }
        h.write(&global);
    }
    json(&mut h, &injector.snapshot());
    Entry {
        facts: vec![("cycles", Value::U64(cycles)), ("errors", Value::Seq(errors))],
        digest: h.finish(),
    }
}

/// A serial launch of a raw allocation of `w`'s kernel.
fn workload_launch(dev: &DeviceSpec, w: &Workload, machine: &MModule) -> Entry {
    let mut global = w.init_global.clone();
    let r = run_launch_opts(dev, machine, w.launch(), &w.params, &mut global, serial());
    launch_entry(&r, &global, None)
}

// --------------------------------------------------------- walk cases

fn fake_version(warps: u32, fail_safe: bool) -> KernelVersion {
    KernelVersion {
        machine: MModule {
            funcs: vec![],
            entry: FuncId(0),
            regs_per_thread: 16,
            smem_slots_per_thread: 0,
            local_slots_per_thread: 0,
            user_smem_bytes: 0,
            static_stack_moves: 0,
        },
        target_warps: warps,
        achieved_warps: warps,
        occupancy: f64::from(warps) / 48.0,
        extra_smem: 0,
        cache_config: None,
        report: AllocReport {
            kernel_max_live: 0,
            regs_per_thread: 16,
            smem_slots_per_thread: 0,
            local_slots_per_thread: 0,
            static_moves: 0,
            per_func: vec![],
        },
        fail_safe,
        label: format!("occ={warps}{}", if fail_safe { "-fs" } else { "" }),
    }
}

/// Candidates at `warp_levels` plus a fail-safe, measured in `direction`.
fn fake_compiled(warp_levels: &[u32], direction: Direction) -> CompiledKernel {
    let mut versions: Vec<KernelVersion> =
        warp_levels.iter().map(|&w| fake_version(w, false)).collect();
    versions.push(fake_version(4, true));
    CompiledKernel {
        tuning_order: (0..warp_levels.len()).collect(),
        versions,
        direction,
        original: 0,
        max_live: 40,
    }
}

/// Per-version base times: a bell-ish profile, so the direction of
/// improvement depends on the profile, not the index order.
const BASE: [u64; 6] = [120, 100, 88, 92, 105, 140];

/// A multiplicative noise factor in `[1 - amp, 1 + amp)`.
fn noisy(state: &mut u64, base: u64, amp: f64) -> u64 {
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 + (u * 2.0 - 1.0) * amp;
    ((base as f64 * factor) as u64).max(1)
}

/// A seeded measurement stream: per-mille rates of transient failures,
/// hangs and resource exhaustion, drawn in that order before the ±5%
/// timing draw.
fn faulty_run(
    ck: &CompiledKernel,
    seed: u64,
    transient_pm: u64,
    hang_pm: u64,
    resource_pm: u64,
) -> impl FnMut(&KernelVersion) -> Result<u64, OrionError> + '_ {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x0510_c0de;
    move |v: &KernelVersion| {
        let i = ck.index_of(&v.label).unwrap();
        if splitmix64(&mut rng) % 1000 < transient_pm {
            return Err(SimError::TransientLaunchFailure { code: 0x70_0001 }.into());
        }
        if splitmix64(&mut rng) % 1000 < hang_pm {
            return Err(SimError::Watchdog { budget: 1_000_000 }.into());
        }
        if splitmix64(&mut rng) % 1000 < resource_pm {
            return Err(
                SimError::ResourceExceeded { detail: format!("injected on {}", v.label) }.into()
            );
        }
        Ok(noisy(&mut rng, BASE[i], 0.05))
    }
}

const DIRECTIONS: [(&str, Direction); 2] =
    [("inc", Direction::Increasing), ("dec", Direction::Decreasing)];

/// The synthetic walk streams: both drivers, both directions, clean,
/// noisy and fault-injected measurements, and the degenerate shapes
/// (zero iterations, one candidate, every candidate dead).
#[allow(clippy::too_many_lines)]
fn synthetic_walk_cases(cases: &mut Vec<Case>) {
    const FIVE: &[u32] = &[8, 16, 24, 32, 48];
    let resilient = Driver(ResiliencePolicy::default(), PolicyKind::PaperWalk);
    let clean = |driver, kernel: &'static str, levels: &'static [u32], dir, iterations| {
        move || {
            let ck = fake_compiled(levels, dir);
            drive(driver, kernel, &ck, iterations, 0.02, |v| Ok(BASE[ck.index_of(&v.label)?]))
        }
    };
    let faulty = |driver,
                  kernel: &'static str,
                  levels: &'static [u32],
                  dir,
                  iterations,
                  seed,
                  rates: [u64; 3]| {
        move || {
            let ck = fake_compiled(levels, dir);
            let run = faulty_run(&ck, seed, rates[0], rates[1], rates[2]);
            drive(driver, kernel, &ck, iterations, 0.02, run)
        }
    };

    for (d, dir) in DIRECTIONS {
        for it in [0u32, 1, 3, 10, 40] {
            cases.push(Case::new(
                format!("synth/plain/clean/{d}/it{it}"),
                false,
                clean(PAPER, "", FIVE, dir, it),
            ));
        }
    }
    for (d, dir) in DIRECTIONS {
        for seed in 0..40u64 {
            cases.push(Case::new(format!("synth/plain/noise/{d}/s{seed}"), false, move || {
                let ck = fake_compiled(FIVE, dir);
                let mut rng = seed ^ 0xab5e;
                drive(PAPER, "", &ck, 30, 0.02, |v| {
                    Ok(noisy(&mut rng, BASE[ck.index_of(&v.label)?], 0.05))
                })
            }));
        }
    }
    cases.push(Case::new("synth/plain/error-after-4", false, || {
        let ck = fake_compiled(&[8, 16, 24, 32], Direction::Increasing);
        let mut calls = 0u32;
        drive(PAPER, "", &ck, 20, 0.02, |v| {
            calls += 1;
            if calls > 4 {
                return Err(SimError::Deadlock.into());
            }
            Ok(BASE[ck.index_of(&v.label)?])
        })
    }));
    for (d, dir) in DIRECTIONS {
        for it in [0u32, 1, 5, 25, 80] {
            cases.push(Case::new(
                format!("synth/resilient/clean/{d}/it{it}"),
                false,
                clean(resilient, "eq", FIVE, dir, it),
            ));
        }
    }
    for (d, dir) in DIRECTIONS {
        for seed in 0..40u64 {
            cases.push(Case::new(
                format!("synth/resilient/noise/{d}/s{seed}"),
                false,
                faulty(resilient, "eq", FIVE, dir, 60, seed, [0, 0, 0]),
            ));
        }
    }
    for (d, dir) in DIRECTIONS {
        for seed in 0..60u64 {
            cases.push(Case::new(
                format!("synth/resilient/faults/{d}/s{seed}"),
                false,
                faulty(resilient, "eq", FIVE, dir, 60, seed, [80, 30, 30]),
            ));
        }
    }
    for seed in 0..40u64 {
        cases.push(Case::new(
            format!("synth/resilient/storm/s{seed}"),
            false,
            faulty(
                resilient,
                "storm",
                &[8, 16, 24],
                Direction::Increasing,
                40,
                seed,
                [100, 300, 300],
            ),
        ));
    }
    for (d, dir) in DIRECTIONS {
        cases.push(Case::new(
            format!("synth/solo/plain/{d}"),
            false,
            clean(PAPER, "", &[16], dir, 12),
        ));
        for seed in 0..10u64 {
            cases.push(Case::new(
                format!("synth/solo/resilient/{d}/s{seed}"),
                false,
                faulty(resilient, "solo", &[16], dir, 12, seed, [50, 20, 20]),
            ));
        }
    }
    let policies = [
        ("retries0", ResiliencePolicy { max_retries: 0, ..ResiliencePolicy::default() }),
        ("strikes1", ResiliencePolicy { quarantine_strikes: 1, ..ResiliencePolicy::default() }),
        ("samples1", ResiliencePolicy { samples: 1, ..ResiliencePolicy::default() }),
        (
            "samples5-strikes2",
            ResiliencePolicy { samples: 5, quarantine_strikes: 2, ..ResiliencePolicy::default() },
        ),
    ];
    for (p, policy) in policies {
        for seed in 0..15u64 {
            cases.push(Case::new(
                format!("synth/policy-{p}/s{seed}"),
                false,
                faulty(
                    Driver(policy, PolicyKind::PaperWalk),
                    "pol",
                    &[8, 16, 24, 32],
                    Direction::Decreasing,
                    50,
                    seed,
                    [60, 25, 25],
                ),
            ));
        }
    }

    // The same streams through the search-policy seam: the paper's walk
    // requested explicitly, and the bandit at its default schedule.
    let seams = [
        ("seam", PolicyKind::PaperWalk),
        ("seam-bandit", PolicyKind::Bandit(BanditConfig::default())),
    ];
    for (prefix, search) in seams {
        let resilient = Driver(ResiliencePolicy::default(), search);
        for (d, dir) in DIRECTIONS {
            for it in [0u32, 1, 3, 10, 40] {
                cases.push(Case::new(
                    format!("{prefix}/plain/clean/{d}/it{it}"),
                    false,
                    clean(Driver(ResiliencePolicy::PAPER, search), "", FIVE, dir, it),
                ));
            }
        }
        for (d, dir) in DIRECTIONS {
            for seed in 0..40u64 {
                cases.push(Case::new(
                    format!("{prefix}/plain/noise/{d}/s{seed}"),
                    false,
                    faulty(
                        Driver(ResiliencePolicy::PAPER, search),
                        "",
                        FIVE,
                        dir,
                        30,
                        seed,
                        [0, 0, 0],
                    ),
                ));
            }
        }
        for (d, dir) in DIRECTIONS {
            for seed in 0..60u64 {
                cases.push(Case::new(
                    format!("{prefix}/resilient/faults/{d}/s{seed}"),
                    false,
                    faulty(resilient, "eq", FIVE, dir, 60, seed, [80, 30, 30]),
                ));
            }
        }
    }
}

/// Walks over real simulated launches of the tier-1 workloads: the
/// plain walk, the fault-free resilient walk, the resilient walk under
/// seeded chaos, and the plain walk over fresh-memory launches.
fn sim_walk_cases(cases: &mut Vec<Case>) {
    const ITERS: u32 = 32;
    const THRESHOLD: f64 = 0.05;
    let resilient = Driver(ResiliencePolicy::default(), PolicyKind::PaperWalk);
    let run = |name: &'static str, driver: Driver, chaos: Option<u64>| {
        move || {
            let dev = DeviceSpec::gtx680();
            let w = by_name(name).expect("workload");
            let ck = compile_workload(&dev, &w).expect("tier-1 workload compiles");
            let backend = SimBackend::new(dev);
            let injector = chaos.map(|seed| FaultInjector::new(FaultPlan::chaos(seed, 0.10, 0.05)));
            let mut app = App::new(&backend, &w, injector.as_ref());
            drive(driver, w.name, &ck, ITERS, THRESHOLD, |v| app.launch(v))
        }
    };
    for name in WORKLOADS {
        cases.push(Case::new(format!("sim/plain/{name}"), true, run(name, PAPER, None)));
        cases.push(Case::new(
            format!("sim/resilient/clean/{name}"),
            true,
            run(name, resilient, None),
        ));
        for seed in [7u64, 1337] {
            cases.push(Case::new(
                format!("sim/resilient/chaos{seed}/{name}"),
                true,
                run(name, resilient, Some(seed)),
            ));
        }
    }
    // The plain walk at the workload's own iteration count, each launch
    // from fresh memory at the serial engine settings, over the
    // dynamic-tuning candidates whatever the workload's `can_tune`.
    for name in WORKLOADS {
        cases.push(Case::new(format!("sim/fresh/{name}"), true, move || {
            let dev = DeviceSpec::gtx680();
            let w = by_name(name).expect("workload");
            let ck = compile(&w.module, &dev, &TuningConfig::new(w.block)).expect("compile");
            let backend = SimBackend::new(dev);
            drive(PAPER, "", &ck, w.iterations, 0.02, |v| {
                Ok(backend
                    .run(v, w.launch(), &w.params, &mut w.init_global.clone(), serial())?
                    .cycles)
            })
        }));
    }
}

fn walk_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    synthetic_walk_cases(&mut cases);
    sim_walk_cases(&mut cases);
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_core::runtime::TuneReason;

    /// Write `recorded` as a fixture file, read it back, and diff
    /// `fresh` against it.
    fn changed(recorded: &[(&str, Entry)], fresh: &[(&str, Entry)]) -> Vec<String> {
        let rendered = |es: &[(&str, Entry)]| -> Recorded {
            es.iter().map(|(n, e)| ((*n).to_string(), e.render())).collect()
        };
        let file = parse(&render(&rendered(recorded))).expect("a rendered fixture parses");
        diff(&file, &rendered(fresh))
    }

    #[test]
    fn rendering_round_trips_and_diff_names_missing_and_new_cases() {
        let e = |d| Entry { facts: vec![("cycles", Value::U64(7))], digest: d };
        assert!(changed(&[("a", e(1)), ("b", e(2))], &[("a", e(1)), ("b", e(2))]).is_empty());
        let d = changed(&[("a", e(1)), ("gone", e(2))], &[("a", e(1)), ("new", e(3))]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].starts_with("new: (none) → "), "{d:?}");
        assert!(d[1].starts_with("gone: ") && d[1].ends_with(" → (none)"), "{d:?}");
    }

    /// Inversion: a launch fixture recorded with one cycle more than the
    /// simulator now reports fails, naming its case.
    #[test]
    fn a_cycle_off_by_one_fails_and_names_its_case() {
        let (name, launch) = micro_launches().remove(0);
        let (r, g) = launch.run(serial());
        let mut bumped = r.clone().expect("the first micro launch succeeds");
        bumped.cycles += 1;
        let fresh = [(name.as_str(), launch_entry(&r, &g, None))];
        assert!(changed(&fresh, &fresh).is_empty());
        let d = changed(&[(name.as_str(), launch_entry(&Ok(bumped), &g, None))], &fresh);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].starts_with(&format!("{name}: ")), "{d:?}");
    }

    /// Inversion: a walk fixture recorded with one decision's reason
    /// swapped fails, naming its case — though every readable fact
    /// still matches, the digest covers the decision log.
    #[test]
    fn a_swapped_tune_reason_fails_and_names_its_case() {
        let ck = fake_compiled(&[8, 16, 24, 32, 48], Direction::Increasing);
        let out = TuningSession::simple(&ck, 10, 0.02)
            .drive(|v| Ok(BASE[ck.index_of(&v.label)?]))
            .map(|o| Walk::of(o, false));
        let mut swapped = out.clone().expect("a clean walk succeeds");
        let d0 = &mut swapped.decisions[0];
        assert_eq!(d0.reason, TuneReason::Baseline);
        d0.reason = TuneReason::NotDegraded;
        let name = "synth/plain/clean/inc/it10";
        let fresh = [(name, walk_entry(&out, 10))];
        assert!(changed(&fresh, &fresh).is_empty());
        let recorded = [(name, walk_entry(&Ok(swapped), 10))];
        assert_eq!(recorded[0].1.facts, fresh[0].1.facts, "the readable facts agree");
        let d = changed(&recorded, &fresh);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].starts_with(&format!("{name}: ")), "{d:?}");
    }
}
