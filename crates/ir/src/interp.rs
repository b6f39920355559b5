//! A reference interpreter with a cycle cost model.
//!
//! Two jobs:
//!
//! 1. **Semantics oracle** — property tests assert that optimization passes
//!    preserve the observable outcome (return value + final global state).
//! 2. **Performance substrate** — Figure 19 of the paper measures the runtime
//!    impact of size-tuned inlining; we reproduce it with this interpreter's
//!    deterministic cycle counts, which include per-instruction costs, call
//!    overhead, and a small instruction-cache model (the second-order effect
//!    §6 of the paper discusses).

use crate::function::Linkage;
use crate::ids::{FuncId, GlobalId, ValueId};
use crate::inst::{Inst, JumpTarget, Terminator};
use crate::module::Module;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Cycle costs charged by the interpreter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Simple ALU operation.
    pub alu: u64,
    /// Multiplication.
    pub mul: u64,
    /// Division / remainder.
    pub div: u64,
    /// Global load or store.
    pub mem: u64,
    /// Materializing a constant.
    pub konst: u64,
    /// Taken on every call instruction (argument shuffling + call + ret +
    /// prologue/epilogue), the overhead inlining eliminates.
    pub call_overhead: u64,
    /// Conditional branch.
    pub branch: u64,
    /// Unconditional jump.
    pub jump: u64,
    /// Instruction-cache capacity, in instruction-count units. `0` disables
    /// the cache model.
    pub icache_capacity: u64,
    /// Extra cycles per instruction-count unit fetched on an I-cache miss.
    pub icache_miss_per_unit: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            mul: 3,
            div: 20,
            mem: 4,
            konst: 1,
            call_overhead: 10,
            branch: 2,
            jump: 1,
            icache_capacity: 4096,
            icache_miss_per_unit: 2,
        }
    }
}

impl CostModel {
    /// A cost model with the I-cache disabled (pure instruction counting).
    pub fn without_icache() -> Self {
        CostModel { icache_capacity: 0, icache_miss_per_unit: 0, ..CostModel::default() }
    }
}

/// One observable side effect: a store to a global cell.
///
/// Loads are deliberately *not* events — redundancy elimination legitimately
/// removes them — but every store survives the `-Os` pipeline, so the
/// ordered store sequence is part of a program's observable behaviour and
/// the differential oracle in `optinline-check` compares it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EffectEvent {
    /// The global cell written.
    pub global: GlobalId,
    /// The value stored.
    pub value: i64,
}

/// Result of a successful interpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Value returned by the entry function (if any).
    pub ret: Option<i64>,
    /// Final state of every global cell.
    pub globals: Vec<i64>,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Number of executed instructions (terminators included).
    pub steps: u64,
    /// Ordered store events, recorded only when effect tracing is enabled
    /// ([`Interp::with_effect_trace`]); empty otherwise.
    pub effects: Vec<EffectEvent>,
}

impl Outcome {
    /// The observable part of the outcome: return value plus global state.
    /// Passes must preserve this; cycles and steps may change.
    pub fn observable(&self) -> (Option<i64>, &[i64]) {
        (self.ret, &self.globals)
    }
}

/// Interpretation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The step budget was exhausted (probable non-termination).
    FuelExhausted,
    /// Call depth exceeded the limit.
    StackOverflow,
    /// An `unreachable` terminator was executed.
    UnreachableExecuted(FuncId),
    /// A call to a stubbed-out function was executed.
    CalledStub(FuncId),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::FuelExhausted => write!(f, "interpreter fuel exhausted"),
            InterpError::StackOverflow => write!(f, "interpreter call depth exceeded"),
            InterpError::UnreachableExecuted(func) => {
                write!(f, "executed `unreachable` in {func}")
            }
            InterpError::CalledStub(func) => write!(f, "called stubbed-out function {func}"),
        }
    }
}

impl Error for InterpError {}

/// Interpreter over one module.
#[derive(Debug)]
pub struct Interp<'m> {
    module: &'m Module,
    cost: CostModel,
    globals: Vec<i64>,
    cycles: u64,
    steps: u64,
    fuel: u64,
    max_depth: usize,
    icache: VecDeque<(FuncId, u64)>,
    icache_used: u64,
    func_units: Vec<u64>,
    trace: Option<Vec<EffectEvent>>,
}

impl<'m> Interp<'m> {
    /// Creates an interpreter with the default cost model and a 10M-step
    /// fuel budget.
    pub fn new(module: &'m Module) -> Self {
        Self::with_cost(module, CostModel::default())
    }

    /// Creates an interpreter with an explicit cost model.
    pub fn with_cost(module: &'m Module, cost: CostModel) -> Self {
        let func_units = module.iter_funcs().map(|(_, f)| (f.inst_count() as u64).max(1)).collect();
        Interp {
            module,
            cost,
            globals: module.globals().iter().map(|g| g.init).collect(),
            cycles: 0,
            steps: 0,
            fuel: 10_000_000,
            max_depth: 512,
            icache: VecDeque::new(),
            icache_used: 0,
            func_units,
            trace: None,
        }
    }

    /// Overrides the fuel budget (number of executed steps allowed).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Overrides the call-depth limit.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Enables effect tracing: the outcome's `effects` records every store
    /// to a global, in execution order.
    pub fn with_effect_trace(mut self) -> Self {
        self.trace = Some(Vec::new());
        self
    }

    /// Runs `func` with `args`, consuming the interpreter.
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    pub fn run(mut self, func: FuncId, args: &[i64]) -> Result<Outcome, InterpError> {
        self.touch_icache(func);
        let ret = self.call(func, args, 0)?;
        Ok(Outcome {
            ret,
            globals: self.globals,
            cycles: self.cycles,
            steps: self.steps,
            effects: self.trace.unwrap_or_default(),
        })
    }

    fn touch_icache(&mut self, func: FuncId) {
        if self.cost.icache_capacity == 0 {
            return;
        }
        if self.icache.iter().any(|(f, _)| *f == func) {
            return;
        }
        let units = self.func_units[func.index()];
        self.charge(
            units.min(self.cost.icache_capacity).saturating_mul(self.cost.icache_miss_per_unit),
        );
        while self.icache_used + units > self.cost.icache_capacity {
            match self.icache.pop_front() {
                Some((_, u)) => self.icache_used -= u,
                None => break,
            }
        }
        self.icache.push_back((func, units));
        self.icache_used += units;
    }

    /// Accrues cycles saturating at `u64::MAX`: a deep-recursion workload
    /// under an inflated cost model must clamp, never wrap (the same rule
    /// `space_size`/`tree_stats` follow for size accounting).
    fn charge(&mut self, cycles: u64) {
        self.cycles = self.cycles.saturating_add(cycles);
    }

    fn step(&mut self) -> Result<(), InterpError> {
        if self.steps >= self.fuel {
            return Err(InterpError::FuelExhausted);
        }
        self.steps += 1;
        Ok(())
    }

    fn call(
        &mut self,
        fid: FuncId,
        args: &[i64],
        depth: usize,
    ) -> Result<Option<i64>, InterpError> {
        if depth > self.max_depth {
            return Err(InterpError::StackOverflow);
        }
        let func = self.module.func(fid);
        if self.module.is_stub(fid) && func.linkage == Linkage::Internal {
            return Err(InterpError::CalledStub(fid));
        }
        debug_assert_eq!(args.len(), func.param_count(), "arity checked by verifier");
        let mut regs = vec![0i64; func.value_bound() as usize];
        let mut block = func.entry();
        for (&p, &a) in func.params().iter().zip(args) {
            regs[p.index()] = a;
        }
        loop {
            let b = func.block(block);
            for inst in &b.insts {
                self.step()?;
                match inst {
                    Inst::Const { dst, value } => {
                        self.charge(self.cost.konst);
                        regs[dst.index()] = *value;
                    }
                    Inst::Bin { dst, op, lhs, rhs } => {
                        use crate::inst::BinOp;
                        self.charge(match op {
                            BinOp::Mul => self.cost.mul,
                            BinOp::Div | BinOp::Rem => self.cost.div,
                            _ => self.cost.alu,
                        });
                        regs[dst.index()] = op.eval(regs[lhs.index()], regs[rhs.index()]);
                    }
                    Inst::Call { dst, callee, args, .. } => {
                        self.charge(self.cost.call_overhead);
                        self.touch_icache(*callee);
                        let vals: Vec<i64> = args.iter().map(|a| regs[a.index()]).collect();
                        let r = self.call(*callee, &vals, depth + 1)?;
                        if let Some(d) = dst {
                            regs[d.index()] = r.unwrap_or(0);
                        }
                    }
                    Inst::Load { dst, global } => {
                        self.charge(self.cost.mem);
                        regs[dst.index()] = self.globals[global.index()];
                    }
                    Inst::Store { global, src } => {
                        self.charge(self.cost.mem);
                        let value = regs[src.index()];
                        self.globals[global.index()] = value;
                        if let Some(trace) = &mut self.trace {
                            trace.push(EffectEvent { global: *global, value });
                        }
                    }
                }
            }
            self.step()?;
            let apply = |regs: &mut Vec<i64>, t: &JumpTarget, func: &crate::function::Function| {
                let vals: Vec<i64> = t.args.iter().map(|a| regs[a.index()]).collect();
                for (&p, v) in func.block(t.block).params.iter().zip(vals) {
                    regs[p.index()] = v;
                }
                t.block
            };
            match &b.term {
                Terminator::Jump(t) => {
                    self.charge(self.cost.jump);
                    block = apply(&mut regs, t, func);
                }
                Terminator::Branch { cond, then_to, else_to } => {
                    self.charge(self.cost.branch);
                    let t = if regs[cond.index()] != 0 { then_to } else { else_to };
                    block = apply(&mut regs, t, func);
                }
                Terminator::Return(v) => {
                    return Ok(v.map(|v: ValueId| regs[v.index()]));
                }
                Terminator::Unreachable => {
                    return Err(InterpError::UnreachableExecuted(fid));
                }
            }
        }
    }
}

/// Convenience: runs `main` (by name) with default costs. A parameterless
/// `main` runs as-is; a parameterized one receives zeros.
///
/// # Errors
///
/// Returns an error if the module has no `main` or interpretation fails.
pub fn run_main(module: &Module) -> Result<Outcome, Box<dyn Error>> {
    let main = module
        .func_by_name("main")
        .ok_or_else(|| Box::new(InterpError::CalledStub(FuncId::new(0))) as Box<dyn Error>)?;
    let args = vec![0i64; module.func(main).param_count()];
    Ok(Interp::new(module).run(main, &args)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::function::Linkage;
    use crate::inst::BinOp;

    fn arith_module() -> Module {
        let mut m = Module::new("m");
        let g = m.add_global("g", 5);
        let double = m.declare_function("double", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, double);
            let p = b.param(0);
            let r = b.bin(BinOp::Add, p, p);
            b.ret(Some(r));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.load(g);
            let y = b.call(double, &[x]).unwrap();
            b.store(g, y);
            b.ret(Some(y));
        }
        m
    }

    #[test]
    fn runs_arithmetic_and_memory() {
        let m = arith_module();
        let out = run_main(&m).unwrap();
        assert_eq!(out.ret, Some(10));
        assert_eq!(out.globals, vec![10]);
        assert!(out.cycles > 0);
        assert!(out.steps > 0);
    }

    #[test]
    fn call_overhead_is_charged() {
        let m = arith_module();
        let main = m.func_by_name("main").unwrap();
        let base =
            Interp::with_cost(&m, CostModel::without_icache()).run(main, &[]).unwrap().cycles;
        let mut expensive = CostModel::without_icache();
        expensive.call_overhead = 1000;
        let costly = Interp::with_cost(&m, expensive).run(main, &[]).unwrap().cycles;
        assert_eq!(costly - base, 1000 - CostModel::default().call_overhead);
    }

    #[test]
    fn branches_select_correct_path() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        b.branch(p, t, &[], e, &[]);
        b.switch_to(t);
        let one = b.iconst(1);
        b.ret(Some(one));
        b.switch_to(e);
        let zero = b.iconst(0);
        b.ret(Some(zero));
        assert_eq!(Interp::new(&m).run(f, &[5]).unwrap().ret, Some(1));
        assert_eq!(Interp::new(&m).run(f, &[0]).unwrap().ret, Some(0));
    }

    #[test]
    fn loop_counts_to_n() {
        // sum = 0; for i in 0..n { sum += i }
        let mut m = Module::new("m");
        let f = m.declare_function("sum", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let n = b.param(0);
        let zero = b.iconst(0);
        let (hdr, hp) = b.new_block(2); // i, sum
        let (body, _) = b.new_block(0);
        let (exit, _) = b.new_block(0);
        b.jump(hdr, &[zero, zero]);
        let (i, sum) = (hp[0], hp[1]);
        let c = b.bin(BinOp::Lt, i, n);
        b.branch(c, body, &[], exit, &[]);
        b.switch_to(body);
        let sum2 = b.bin(BinOp::Add, sum, i);
        let one = b.iconst(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(hdr, &[i2, sum2]);
        // After jump cursor is hdr; ret lives in exit.
        b.switch_to(exit);
        b.ret(Some(sum));
        assert_eq!(Interp::new(&m).run(f, &[10]).unwrap().ret, Some(45));
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let mut m = Module::new("m");
        let f = m.declare_function("spin", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let (l, _) = b.new_block(0);
        b.jump(l, &[]);
        b.jump(l, &[]);
        let err = Interp::new(&m).with_fuel(100).run(f, &[]).unwrap_err();
        assert_eq!(err, InterpError::FuelExhausted);
    }

    #[test]
    fn unbounded_recursion_overflows() {
        let mut m = Module::new("m");
        let f = m.declare_function("rec", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let v = b.call(f, &[]).unwrap();
        b.ret(Some(v));
        let err = Interp::new(&m).run(f, &[]).unwrap_err();
        assert_eq!(err, InterpError::StackOverflow);
    }

    #[test]
    fn icache_misses_cost_cycles() {
        let m = arith_module();
        let main = m.func_by_name("main").unwrap();
        let without = Interp::with_cost(&m, CostModel::without_icache()).run(main, &[]).unwrap();
        let with = Interp::new(&m).run(main, &[]).unwrap();
        assert!(with.cycles > without.cycles);
        assert_eq!(with.observable(), without.observable());
    }

    /// Builds `chain0 → chain1 → … → chain{n-1}` where only the last link
    /// does any arithmetic; used to pin down depth-limit boundaries.
    fn call_chain(n: usize) -> (Module, FuncId) {
        assert!(n >= 1);
        let mut m = Module::new("chain");
        let ids: Vec<FuncId> = (0..n)
            .map(|i| {
                let linkage = if i == 0 { Linkage::Public } else { Linkage::Internal };
                m.declare_function(format!("chain{i}"), 0, linkage)
            })
            .collect();
        for (i, &fid) in ids.iter().enumerate() {
            let mut b = FuncBuilder::new(&mut m, fid);
            if i + 1 < n {
                let v = b.call(ids[i + 1], &[]).unwrap();
                b.ret(Some(v));
            } else {
                let c = b.iconst(7);
                b.ret(Some(c));
            }
        }
        (m, ids[0])
    }

    #[test]
    fn fuel_exhaustion_mid_call_unwinds_as_a_trap() {
        // Each frame costs 2 steps (call inst + return terminator); budget
        // the fuel so it runs out inside a nested call, not at the top.
        let (m, entry) = call_chain(8);
        let err = Interp::new(&m).with_fuel(5).run(entry, &[]).unwrap_err();
        assert_eq!(err, InterpError::FuelExhausted);
        // One more unit of fuel still traps: still mid-call.
        let err = Interp::new(&m).with_fuel(6).run(entry, &[]).unwrap_err();
        assert_eq!(err, InterpError::FuelExhausted);
        // With enough fuel the same program completes normally.
        assert_eq!(Interp::new(&m).run(entry, &[]).unwrap().ret, Some(7));
    }

    #[test]
    fn stack_overflow_triggers_exactly_past_the_depth_limit() {
        // depth counts nested calls: the entry runs at depth 0, so a chain
        // of k functions reaches depth k-1. max_depth = d admits depth d
        // and rejects depth d+1 — pin the boundary on both sides.
        let d = 5;
        let (ok_m, ok_entry) = call_chain(d + 1); // deepest frame at depth d
        let out = Interp::new(&ok_m).with_max_depth(d).run(ok_entry, &[]).unwrap();
        assert_eq!(out.ret, Some(7));
        let (over_m, over_entry) = call_chain(d + 2); // depth d+1: one too deep
        let err = Interp::new(&over_m).with_max_depth(d).run(over_entry, &[]).unwrap_err();
        assert_eq!(err, InterpError::StackOverflow);
    }

    #[test]
    fn calling_a_stubbed_function_is_a_distinct_trap_kind() {
        // Simulate dead-function elimination leaving a stub behind while a
        // (buggy or hand-edited) caller still targets it: the interpreter
        // must surface `CalledStub`, not a generic `UnreachableExecuted`.
        let mut m = Module::new("m");
        let stubbed = m.declare_function("gone", 0, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, stubbed);
            let c = b.iconst(3);
            b.ret(Some(c));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let v = b.call(stubbed, &[]).unwrap();
            b.ret(Some(v));
        }
        m.stub_out([stubbed]);
        let err = run_main(&m).unwrap_err();
        let interp_err = err.downcast_ref::<InterpError>().expect("InterpError");
        assert_eq!(*interp_err, InterpError::CalledStub(stubbed));
        assert_ne!(*interp_err, InterpError::UnreachableExecuted(stubbed));
        assert!(interp_err.to_string().contains("stub"));
    }

    #[test]
    fn cycle_accumulation_saturates_instead_of_wrapping() {
        // A deep call chain under a near-MAX per-call cost overflows u64
        // within a handful of frames; the counter must clamp at MAX the
        // way space_size/tree_stats clamp size sums, never wrap to a tiny
        // total that would look like a fast program.
        let (m, entry) = call_chain(64);
        let mut cost = CostModel::without_icache();
        cost.call_overhead = u64::MAX / 2;
        let out = Interp::with_cost(&m, cost).run(entry, &[]).unwrap();
        assert_eq!(out.cycles, u64::MAX);
        assert_eq!(out.ret, Some(7), "saturation must not disturb semantics");

        // The icache path saturates too: a huge per-unit miss cost times
        // the touched units must clamp rather than overflow the multiply.
        let (m2, entry2) = call_chain(8);
        let icost = CostModel { icache_miss_per_unit: u64::MAX, ..CostModel::default() };
        let out2 = Interp::with_cost(&m2, icost).run(entry2, &[]).unwrap();
        assert_eq!(out2.cycles, u64::MAX);
        assert_eq!(out2.ret, Some(7));
    }

    #[test]
    fn effect_trace_records_stores_in_order() {
        let mut m = Module::new("m");
        let g0 = m.add_global("g0", 0);
        let g1 = m.add_global("g1", 0);
        let f = m.declare_function("main", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let a = b.iconst(4);
        b.store(g1, a);
        let c = b.iconst(9);
        b.store(g0, c);
        b.store(g1, c);
        b.ret(None);
        let main = m.func_by_name("main").unwrap();
        let traced = Interp::new(&m).with_effect_trace().run(main, &[]).unwrap();
        assert_eq!(
            traced.effects,
            vec![
                EffectEvent { global: g1, value: 4 },
                EffectEvent { global: g0, value: 9 },
                EffectEvent { global: g1, value: 9 },
            ]
        );
        // Tracing is opt-in: the default interpreter records nothing.
        let untraced = Interp::new(&m).run(main, &[]).unwrap();
        assert!(untraced.effects.is_empty());
        assert_eq!(traced.observable(), untraced.observable());
    }

    #[test]
    fn executing_unreachable_is_an_error() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 0, Linkage::Public);
        let err = Interp::new(&m).run(f, &[]).unwrap_err();
        assert_eq!(err, InterpError::UnreachableExecuted(f));
        assert!(err.to_string().contains("unreachable"));
    }
}
