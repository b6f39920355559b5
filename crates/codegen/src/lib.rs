//! # optinline-codegen
//!
//! Deterministic `.text`-size models for `optinline-ir` modules.
//!
//! The paper's entire methodology rests on a deterministic scalar metric:
//! the size of the compiled object's `.text` section under a given inlining
//! configuration. This crate plays that role by *lowering* each function to
//! a byte-costed virtual ISA and summing encoded sizes. Two targets are
//! provided:
//!
//! - [`X86Like`] — CISC-flavoured: 5-byte calls plus per-argument moves,
//!   real prologue/epilogue and spill costs, 16-byte function alignment.
//!   Calls are expensive, so inlining small callees pays off (and enables
//!   the optimizer to shrink further) — this mirrors the paper's main
//!   SPEC2017/x86 setting.
//! - [`WasmLike`] — compact stack-machine flavoured: 2-byte calls, cheap
//!   function headers, no alignment. Call overhead is tiny, so inlining is
//!   marginal at best — this mirrors the paper's SQLite/WASM finding
//!   (§5.2.3), where LLVM's inlining *increased* size by 18.3%.
//!
//! The model is intentionally simple but preserves the trade-off structure
//! that makes inlining-for-size non-trivial: duplicated bodies cost bytes,
//! removed calls save bytes, block-argument plumbing costs bytes, and
//! register pressure in large merged functions costs spill bytes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use optinline_ir::analysis::reachable_blocks;
use optinline_ir::{BinOp, FuncId, Function, Inst, JumpTarget, Module, Terminator};

/// A size model: assigns encoded byte sizes to IR constructs.
///
/// Implementations must be deterministic and total. The trait is
/// object-safe so evaluators can hold `&dyn Target`.
pub trait Target: Send + Sync + std::fmt::Debug {
    /// Human-readable target name, e.g. `"x86-like"`.
    fn name(&self) -> &str;

    /// Encoded size of one instruction.
    fn inst_bytes(&self, inst: &Inst) -> u64;

    /// Encoded size of a block terminator (including block-argument moves).
    fn terminator_bytes(&self, term: &Terminator) -> u64;

    /// Fixed per-function overhead: prologue/epilogue plus spill code for
    /// `defs` locally defined values.
    fn function_overhead(&self, defs: u64) -> u64;

    /// Function start alignment in bytes (1 = none).
    fn alignment(&self) -> u64;
}

fn jump_args_bytes(per_arg: u64, t: &JumpTarget) -> u64 {
    per_arg * t.args.len() as u64
}

/// An x86-64-flavoured size model (the paper's main setting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct X86Like;

impl Target for X86Like {
    fn name(&self) -> &str {
        "x86-like"
    }

    fn inst_bytes(&self, inst: &Inst) -> u64 {
        match inst {
            Inst::Const { value, .. } => {
                if i32::try_from(*value).is_ok() {
                    5 // mov r32, imm32
                } else {
                    10 // movabs r64, imm64
                }
            }
            Inst::Bin { op, .. } => match op {
                BinOp::Mul => 4,
                BinOp::Div | BinOp::Rem => 10, // cqo + idiv + mov
                op if op.is_comparison() => 7, // cmp + setcc + movzx
                BinOp::Shl | BinOp::Shr => 4,
                _ => 3,
            },
            // call rel32 + per-argument register moves.
            Inst::Call { args, .. } => 5 + 3 * args.len() as u64,
            Inst::Load { .. } => 7,  // mov r64, [rip+disp32]
            Inst::Store { .. } => 7, // mov [rip+disp32], r64
        }
    }

    fn terminator_bytes(&self, term: &Terminator) -> u64 {
        match term {
            Terminator::Jump(t) => 5 + jump_args_bytes(3, t),
            Terminator::Branch { then_to, else_to, .. } => {
                // test + jcc rel32; the other edge falls through or jumps.
                3 + 6 + jump_args_bytes(3, then_to) + jump_args_bytes(3, else_to)
            }
            Terminator::Return(_) => 1,
            Terminator::Unreachable => 2, // ud2
        }
    }

    fn function_overhead(&self, defs: u64) -> u64 {
        // push rbp; mov rbp,rsp ... pop rbp. Above 24 live non-constant
        // values we charge spill traffic: very large merged functions pay
        // extra bytes, gently.
        let spills = defs.saturating_sub(24);
        6 + spills * 3
    }

    fn alignment(&self) -> u64 {
        16
    }
}

/// A WebAssembly-flavoured size model (compact encodings, cheap calls).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WasmLike;

fn sleb_len(value: i64) -> u64 {
    let mut v = value;
    let mut len = 1;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        let sign_bit = byte & 0x40 != 0;
        if (v == 0 && !sign_bit) || (v == -1 && sign_bit) {
            return len;
        }
        len += 1;
    }
}

impl Target for WasmLike {
    fn name(&self) -> &str {
        "wasm-like"
    }

    fn inst_bytes(&self, inst: &Inst) -> u64 {
        match inst {
            Inst::Const { value, .. } => 1 + sleb_len(*value) + 2, // i64.const + local.set
            Inst::Bin { .. } => 2 + 2 + 1 + 2,                     // two local.get, op, local.set
            Inst::Call { args, .. } => 2 + args.len() as u64 * 2 + 2,
            Inst::Load { .. } => 2 + 2,  // global.get + local.set
            Inst::Store { .. } => 2 + 2, // local.get + global.set
        }
    }

    fn terminator_bytes(&self, term: &Terminator) -> u64 {
        match term {
            Terminator::Jump(t) => 2 + jump_args_bytes(2, t),
            Terminator::Branch { then_to, else_to, .. } => {
                2 + 2 + jump_args_bytes(2, then_to) + jump_args_bytes(2, else_to)
            }
            Terminator::Return(_) => 1,
            Terminator::Unreachable => 1,
        }
    }

    fn function_overhead(&self, defs: u64) -> u64 {
        // Size-prefix + locals vector. Beyond the compact one-byte index
        // range, every extra local inflates the LEB encodings of the
        // `local.get`/`local.set` traffic touching it — merged (heavily
        // inlined) functions pay, which is why inlining buys so little on
        // WASM targets (§5.2.3).
        3 + defs.saturating_sub(16) * 3
    }

    fn alignment(&self) -> u64 {
        1
    }
}

fn align_up(size: u64, align: u64) -> u64 {
    debug_assert!(align >= 1);
    size.div_ceil(align) * align
}

/// Number of locally defined values in the blocks of a function that
/// `reach` marks (parameters included) — the codegen's register pressure
/// proxy. Pass [`reachable_blocks`] of the function to count what it emits.
/// Constants are excluded: they rematerialize instead of spilling.
pub fn defined_values(func: &Function, reach: &[bool]) -> u64 {
    let mut defs = 0u64;
    for (bid, block) in func.iter_blocks() {
        if !reach[bid.index()] {
            continue;
        }
        defs += block.params.len() as u64;
        defs += block
            .insts
            .iter()
            .filter(|i| i.def().is_some() && !matches!(i, Inst::Const { .. }))
            .count() as u64;
    }
    defs
}

/// Encoded size of one function under `target`, counting only reachable
/// blocks, aligned to the target's function alignment. Stubs are free.
pub fn function_size(module: &Module, target: &dyn Target, fid: FuncId) -> u64 {
    if module.is_stub(fid) {
        return 0;
    }
    let func = module.func(fid);
    let reach = reachable_blocks(func);
    let mut size = target.function_overhead(defined_values(func, &reach));
    for (bid, block) in func.iter_blocks() {
        if !reach[bid.index()] {
            continue;
        }
        for inst in &block.insts {
            size += target.inst_bytes(inst);
        }
        size += target.terminator_bytes(&block.term);
    }
    align_up(size, target.alignment())
}

/// The module's `.text` size: the sum of all non-stub function sizes.
///
/// Dead-function elimination stubs out uncalled internal functions, so after
/// a standard pipeline run this measures exactly what survives — the metric
/// every experiment in the paper optimizes.
pub fn text_size(module: &Module, target: &dyn Target) -> u64 {
    module.func_ids().map(|f| function_size(module, target, f)).sum()
}

/// Per-function size report, for case-study output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeReport {
    /// `(function name, size in bytes)` for every non-stub function.
    pub per_function: Vec<(String, u64)>,
    /// Total `.text` size.
    pub total: u64,
}

/// Builds a [`SizeReport`] for a module.
pub fn size_report(module: &Module, target: &dyn Target) -> SizeReport {
    let mut per_function = Vec::new();
    let mut total = 0;
    for (id, f) in module.iter_funcs() {
        let s = function_size(module, target, id);
        if s > 0 {
            per_function.push((f.name.clone(), s));
        }
        total += s;
    }
    SizeReport { per_function, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{FuncBuilder, Linkage};

    fn leaf_module() -> (Module, FuncId) {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let r = b.bin(BinOp::Add, p, p);
        b.ret(Some(r));
        (m, f)
    }

    #[test]
    fn x86_function_size_is_aligned() {
        let (m, f) = leaf_module();
        let s = function_size(&m, &X86Like, f);
        assert!(s > 0);
        assert_eq!(s % 16, 0);
    }

    #[test]
    fn wasm_is_smaller_than_x86() {
        let (m, _) = leaf_module();
        assert!(text_size(&m, &WasmLike) < text_size(&m, &X86Like));
    }

    #[test]
    fn stubs_have_zero_size() {
        let (mut m, f) = leaf_module();
        m.stub_out([f]);
        assert_eq!(text_size(&m, &X86Like), 0);
    }

    #[test]
    fn unreachable_blocks_do_not_count() {
        let (mut m, f) = leaf_module();
        let before = text_size(&m, &X86Like);
        // Add a large unreachable block.
        let dead = m.func_mut(f).add_block(vec![]);
        for _ in 0..100 {
            let v = m.func_mut(f).new_value();
            m.func_mut(f).block_mut(dead).insts.push(Inst::Const { dst: v, value: 1 });
        }
        assert_eq!(text_size(&m, &X86Like), before);
    }

    #[test]
    fn calls_cost_more_with_more_args() {
        let mut m = Module::new("m");
        let callee3 = m.declare_function("c3", 3, Linkage::Internal);
        let callee0 = m.declare_function("c0", 0, Linkage::Internal);
        let f = m.declare_function("f", 3, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, callee3);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, callee0);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, f);
            let (x, y, z) = (b.param(0), b.param(1), b.param(2));
            b.call_void(callee3, &[x, y, z]);
            b.call_void(callee0, &[]);
            b.ret(None);
        }
        let f = m.func(f);
        let call3 = &f.blocks[0].insts[0];
        let call0 = &f.blocks[0].insts[1];
        assert_eq!(X86Like.inst_bytes(call3), X86Like.inst_bytes(call0) + 9);
        assert_eq!(WasmLike.inst_bytes(call3), WasmLike.inst_bytes(call0) + 6);
    }

    #[test]
    fn wide_constants_cost_more_everywhere() {
        let small = Inst::Const { dst: optinline_ir::ValueId::new(0), value: 1 };
        let big = Inst::Const { dst: optinline_ir::ValueId::new(0), value: i64::MAX };
        assert!(X86Like.inst_bytes(&big) > X86Like.inst_bytes(&small));
        assert!(WasmLike.inst_bytes(&big) > WasmLike.inst_bytes(&small));
    }

    #[test]
    fn sleb_lengths_match_reference_values() {
        assert_eq!(sleb_len(0), 1);
        assert_eq!(sleb_len(63), 1);
        assert_eq!(sleb_len(64), 2);
        assert_eq!(sleb_len(-64), 1);
        assert_eq!(sleb_len(-65), 2);
        assert_eq!(sleb_len(i64::MAX), 10);
        assert_eq!(sleb_len(i64::MIN), 10);
    }

    #[test]
    fn spill_overhead_kicks_in_for_large_functions() {
        let mut m = Module::new("m");
        let f = m.declare_function("big", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let mut last = b.iconst(1);
        for _ in 0..30 {
            last = b.bin(BinOp::Add, last, last);
        }
        b.ret(Some(last));
        let defs = defined_values(m.func(f), &reachable_blocks(m.func(f)));
        // 30 adds (consts excluded from pressure).
        assert_eq!(defs, 30);
        assert_eq!(X86Like.function_overhead(defs), 6 + (30 - 24) * 3);
        assert_eq!(WasmLike.function_overhead(defs), 3 + (30 - 16) * 3);
    }

    #[test]
    fn size_report_lists_functions() {
        let (m, _) = leaf_module();
        let r = size_report(&m, &X86Like);
        assert_eq!(r.per_function.len(), 1);
        assert_eq!(r.per_function[0].0, "f");
        assert_eq!(r.total, r.per_function[0].1);
    }
}
