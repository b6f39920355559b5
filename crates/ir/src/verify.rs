//! The IR verifier: structural and SSA well-formedness checks.
//!
//! Run [`verify_module`] after construction or transformation; every pass in
//! `optinline-opt` is checked against it in tests.

use crate::analysis::Dominators;
use crate::function::Function;
use crate::ids::{BlockId, FuncId, ValueId};
use crate::inst::{Inst, JumpTarget, Terminator};
use crate::module::Module;
use std::error::Error;
use std::fmt;

/// A verifier diagnostic: which function/block, and what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Offending function.
    pub func: FuncId,
    /// Offending block, when the error is block-local.
    pub block: Option<BlockId>,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error in {}", self.func)?;
        if let Some(b) = self.block {
            write!(f, " at {b}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl Error for VerifyError {}

/// Verifies every function in the module, in id order.
///
/// Checks performed on each function:
/// - every block id referenced by a terminator exists;
/// - jump-target argument counts match destination parameter counts;
/// - no value is defined twice (SSA single assignment);
/// - every use of a value in a reachable block is dominated by its
///   definition;
/// - value ids stay below the function's dense bound;
/// - calls name existing functions, with their parameter count;
/// - global indices are in range.
///
/// One definition table and one [`Dominators`] serve every function.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    let mut defs = Vec::new();
    let mut doms = Dominators::default();
    for (id, _) in module.iter_funcs() {
        verify_function(module, id, &mut defs, &mut doms)?;
    }
    Ok(())
}

/// Verifies one function (see [`verify_module`]), filling `defs` and
/// `doms` with its definitions and dominators.
fn verify_function(
    module: &Module,
    id: FuncId,
    defs: &mut Vec<Def>,
    doms: &mut Dominators,
) -> Result<(), VerifyError> {
    let func = module.func(id);
    let err = |block: Option<BlockId>, message: String| VerifyError { func: id, block, message };

    if func.blocks.is_empty() {
        return Err(err(None, "function has no blocks".into()));
    }

    // Definitions: block params and instruction results, unique. The
    // table is sized by the definitions, never by a value id (ids come
    // from module text), and sorted by value for lookups.
    definitions(func, defs).map_err(|(bid, message)| err(Some(bid), message))?;

    // Structural checks on terminators and calls.
    let check_target = |bid: BlockId, t: &JumpTarget| -> Result<(), VerifyError> {
        if t.block.index() >= func.blocks.len() {
            return Err(err(Some(bid), format!("jump to nonexistent block {}", t.block)));
        }
        let want = func.block(t.block).params.len();
        if t.args.len() != want {
            return Err(err(
                Some(bid),
                format!("jump to {} passes {} args, block takes {}", t.block, t.args.len(), want),
            ));
        }
        Ok(())
    };
    for (bid, block) in func.iter_blocks() {
        for inst in &block.insts {
            if let Inst::Call { callee, args, .. } = inst {
                if callee.index() >= module.func_count() {
                    return Err(err(Some(bid), format!("call to nonexistent function {callee}")));
                }
                let want = module.func(*callee).param_count();
                if args.len() != want {
                    return Err(err(
                        Some(bid),
                        format!(
                            "call to {} passes {} args, function takes {}",
                            module.func(*callee).name,
                            args.len(),
                            want
                        ),
                    ));
                }
            }
            if let Inst::Load { global, .. } | Inst::Store { global, .. } = inst {
                if global.index() >= module.globals().len() {
                    return Err(err(
                        Some(bid),
                        format!("reference to nonexistent global {global}"),
                    ));
                }
            }
        }
        match &block.term {
            Terminator::Jump(t) => check_target(bid, t)?,
            Terminator::Branch { then_to, else_to, .. } => {
                check_target(bid, then_to)?;
                check_target(bid, else_to)?;
            }
            Terminator::Return(_) | Terminator::Unreachable => {}
        }
    }

    // Dominance: every use in a reachable block must be dominated by its
    // def, which an unreachable block's def never is.
    doms.compute(func);
    for (bid, block) in func.iter_blocks() {
        if !doms.reachable(bid) {
            continue;
        }
        // A use at position `at` (instruction `k` is at `k + 1`, the
        // terminator after the last) sees this block's params and the
        // results of the instructions before it.
        let check_use = |v: ValueId, at: u32| -> Result<(), VerifyError> {
            let Ok(i) = defs.binary_search_by_key(&v, |d| d.value) else {
                return Err(err(Some(bid), format!("use of undefined value {v}")));
            };
            let def = defs[i];
            if def.block == bid {
                if def.pos < at {
                    Ok(())
                } else {
                    // Defined later in the same block.
                    Err(err(Some(bid), format!("use of {v} before its definition")))
                }
            } else if !doms.dominates(def.block, bid) {
                Err(err(Some(bid), format!("use of {v} not dominated by its definition")))
            } else {
                Ok(())
            }
        };
        let mut bad = None;
        let mut check_all = |at: u32, v: ValueId| {
            if bad.is_none() {
                bad = check_use(v, at).err();
            }
        };
        for (k, inst) in block.insts.iter().enumerate() {
            inst.for_each_use(|v| check_all(k as u32 + 1, v));
        }
        block.term.for_each_use(|v| check_all(block.insts.len() as u32 + 1, v));
        if let Some(e) = bad {
            return Err(e);
        }
    }
    Ok(())
}

/// Where a value is defined: its block, its position there (0 for a
/// block parameter, `k + 1` for the `k`th instruction), and its rank in
/// definition order.
#[derive(Clone, Copy)]
struct Def {
    value: ValueId,
    block: BlockId,
    pos: u32,
    order: u32,
}

/// Fills `defs` with every definition of `func`, sorted by value. Fails
/// on the first definition, in block and instruction order, whose value
/// exceeds the function's dense bound or was defined before: the block
/// and message to report.
fn definitions(func: &Function, defs: &mut Vec<Def>) -> Result<(), (BlockId, String)> {
    defs.clear();
    for (bid, block) in func.iter_blocks() {
        let results = block.insts.iter().enumerate().filter_map(|(k, inst)| Some((inst.def()?, k)));
        let params = block.params.iter().map(|&p| (p, 0));
        for (value, pos) in params.chain(results.map(|(d, k)| (d, k + 1))) {
            let order = defs.len() as u32;
            defs.push(Def { value, block: bid, pos: pos as u32, order });
        }
    }
    // Equal values sort in definition order, so every one after the first
    // of its run is a redefinition.
    defs.sort_unstable_by_key(|d| (d.value, d.order));
    let bound = func.value_bound();
    let mut first_bad: Option<(Def, bool)> = None;
    for (i, &def) in defs.iter().enumerate() {
        let over = def.value.as_u32() >= bound;
        let again = i > 0 && defs[i - 1].value == def.value;
        if (over || again) && first_bad.is_none_or(|(bad, _)| def.order < bad.order) {
            first_bad = Some((def, over));
        }
    }
    match first_bad {
        None => Ok(()),
        Some((def, true)) => Err((def.block, format!("{} exceeds dense value bound", def.value))),
        Some((def, false)) => Err((def.block, format!("{} defined more than once", def.value))),
    }
}

/// Convenience wrapper asserting verification success with a readable panic.
///
/// # Panics
///
/// Panics with the pretty-printed module and diagnostic if verification
/// fails. Intended for tests and debug assertions in passes.
pub fn assert_verified(module: &Module) {
    if let Err(e) = verify_module(module) {
        panic!("IR verification failed: {e}\n--- module ---\n{module}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::function::Linkage;
    use crate::ids::GlobalId;
    use crate::inst::BinOp;

    fn ok_module() -> Module {
        let mut m = Module::new("m");
        let h = m.declare_function("h", 1, Linkage::Internal);
        let f = m.declare_function("f", 1, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, h);
            let p = b.param(0);
            b.ret(Some(p));
        }
        {
            let mut b = FuncBuilder::new(&mut m, f);
            let p = b.param(0);
            let v = b.call(h, &[p]).unwrap();
            b.ret(Some(v));
        }
        m
    }

    #[test]
    fn accepts_well_formed_module() {
        assert_eq!(verify_module(&ok_module()), Ok(()));
    }

    #[test]
    fn rejects_double_definition() {
        let mut m = ok_module();
        let f = m.func_by_name("f").unwrap();
        let p0 = m.func(f).params()[0];
        m.func_mut(f).blocks[0].insts.push(Inst::Const { dst: p0, value: 0 });
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("defined more than once"));
    }

    #[test]
    fn rejects_undefined_use() {
        let mut m = ok_module();
        let f = m.func_by_name("f").unwrap();
        m.func_mut(f).blocks[0].term = Terminator::Return(Some(ValueId::new(3)));
        m.func_mut(f).reserve_values(4);
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("undefined value") || e.message.contains("not dominated"));
    }

    #[test]
    fn rejects_use_before_definition_in_block() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 0, Linkage::Public);
        let func = m.func_mut(f);
        let a = func.new_value();
        let b = func.new_value();
        func.blocks[0].insts.push(Inst::Bin { dst: b, op: BinOp::Add, lhs: a, rhs: a });
        func.blocks[0].insts.push(Inst::Const { dst: a, value: 1 });
        func.blocks[0].term = Terminator::Return(Some(b));
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("before its definition"));
    }

    #[test]
    fn rejects_branch_arg_mismatch() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _) = b.new_block(1);
        b.jump(t, &[]);
        b.ret(Some(p));
        let _ = t;
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("args"));
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut m = ok_module();
        let f = m.func_by_name("f").unwrap();
        if let Inst::Call { args, .. } = &mut m.func_mut(f).blocks[0].insts[0] {
            args.clear();
        }
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("passes 0 args"));
    }

    #[test]
    fn rejects_bad_global_reference() {
        let mut m = ok_module();
        let f = m.func_by_name("f").unwrap();
        let v = m.func_mut(f).new_value();
        m.func_mut(f).blocks[0].insts.insert(0, Inst::Load { dst: v, global: GlobalId::new(9) });
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("nonexistent global"));
    }

    #[test]
    fn rejects_nondominating_use() {
        // b0 branches to b1 or b2; b1 defines v, b2 uses it.
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut bld = FuncBuilder::new(&mut m, f);
        let p = bld.param(0);
        let (b1, _) = bld.new_block(0);
        let (b2, _) = bld.new_block(0);
        bld.branch(p, b1, &[], b2, &[]);
        bld.switch_to(b1);
        let v = bld.iconst(1);
        bld.ret(Some(v));
        bld.switch_to(b2);
        bld.ret(Some(v));
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("not dominated"));
        assert!(e.to_string().contains("verify error"));
    }

    #[test]
    fn unreachable_blocks_are_not_dominance_checked() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 0, Linkage::Public);
        let mut bld = FuncBuilder::new(&mut m, f);
        let (dead, _) = bld.new_block(0);
        bld.ret(None);
        bld.switch_to(dead);
        // Dead block may reference values sloppily; it is ignored.
        bld.ret(None);
        assert_eq!(verify_module(&m), Ok(()));
    }
}
