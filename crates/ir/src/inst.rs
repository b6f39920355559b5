//! Instructions and block terminators.
//!
//! The IR is a conventional SSA mid-level representation: straight-line
//! instructions inside basic blocks, with block parameters instead of phi
//! nodes (à la Cranelift/MLIR). All values are 64-bit integers; comparisons
//! produce `0`/`1` and conditional branches test for non-zero.

use crate::ids::{BlockId, CallSiteId, FuncId, GlobalId, ValueId};
use std::fmt;

/// A binary operator.
///
/// Division and remainder are *total*: dividing by zero yields `0`, and
/// `i64::MIN / -1` wraps. This keeps the interpreter and constant folder in
/// exact agreement without trap modelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Total signed division (`x / 0 == 0`).
    Div,
    /// Total signed remainder (`x % 0 == 0`).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount is masked to `0..64`).
    Shl,
    /// Arithmetic right shift (shift amount is masked to `0..64`).
    Shr,
    /// Equality comparison, yields `0`/`1`.
    Eq,
    /// Inequality comparison, yields `0`/`1`.
    Ne,
    /// Signed less-than, yields `0`/`1`.
    Lt,
    /// Signed less-or-equal, yields `0`/`1`.
    Le,
    /// Signed greater-than, yields `0`/`1`.
    Gt,
    /// Signed greater-or-equal, yields `0`/`1`.
    Ge,
}

impl BinOp {
    /// All operators, in a fixed order (useful for fuzzing and generation).
    pub const ALL: [BinOp; 16] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];

    /// Returns the textual mnemonic used by the printer and parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
        }
    }

    /// Parses a mnemonic back into an operator.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|op| op.mnemonic() == s)
    }

    /// Returns `true` for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// Evaluates the operator on two constants with the IR's total semantics.
    pub fn eval(self, lhs: i64, rhs: i64) -> i64 {
        match self {
            BinOp::Add => lhs.wrapping_add(rhs),
            BinOp::Sub => lhs.wrapping_sub(rhs),
            BinOp::Mul => lhs.wrapping_mul(rhs),
            BinOp::Div => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_div(rhs)
                }
            }
            BinOp::Rem => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_rem(rhs)
                }
            }
            BinOp::And => lhs & rhs,
            BinOp::Or => lhs | rhs,
            BinOp::Xor => lhs ^ rhs,
            BinOp::Shl => lhs.wrapping_shl(rhs as u32 & 63),
            BinOp::Shr => lhs.wrapping_shr(rhs as u32 & 63),
            BinOp::Eq => (lhs == rhs) as i64,
            BinOp::Ne => (lhs != rhs) as i64,
            BinOp::Lt => (lhs < rhs) as i64,
            BinOp::Le => (lhs <= rhs) as i64,
            BinOp::Gt => (lhs > rhs) as i64,
            BinOp::Ge => (lhs >= rhs) as i64,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A straight-line instruction.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = const value`
    Const {
        /// Result value.
        dst: ValueId,
        /// The constant.
        value: i64,
    },
    /// `dst = op lhs, rhs`
    Bin {
        /// Result value.
        dst: ValueId,
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// `dst = call callee(args...) site sN`
    ///
    /// `site` is the *original* call-site id; cloned copies keep it (coupled
    /// decisions, §2). `inline_path` records the functions already expanded
    /// along the inlining chain that produced this copy — the inliner uses it
    /// to bound recursive inlining to depth one (§3.2). It is empty for
    /// source-level calls and is not part of structural equality-relevant
    /// surface syntax, but is printed/parsed for full round-tripping.
    Call {
        /// Result value, if the call result is used.
        dst: Option<ValueId>,
        /// The called function.
        callee: FuncId,
        /// Argument values.
        args: Vec<ValueId>,
        /// Original call-site id (stable across cloning).
        site: CallSiteId,
        /// Functions already inlined along the chain that created this copy.
        inline_path: Vec<FuncId>,
    },
    /// `dst = load @g`
    Load {
        /// Result value.
        dst: ValueId,
        /// Global cell to read.
        global: GlobalId,
    },
    /// `store @g, src`
    Store {
        /// Global cell to write.
        global: GlobalId,
        /// Value stored.
        src: ValueId,
    },
}

impl Inst {
    /// Returns the value defined by this instruction, if any.
    pub fn def(&self) -> Option<ValueId> {
        match self {
            Inst::Const { dst, .. } | Inst::Bin { dst, .. } | Inst::Load { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } => None,
        }
    }

    /// Calls `f` for every value used (read) by this instruction.
    pub fn for_each_use(&self, mut f: impl FnMut(ValueId)) {
        match self {
            Inst::Const { .. } | Inst::Load { .. } => {}
            Inst::Bin { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Call { args, .. } => {
                for &a in args {
                    f(a);
                }
            }
            Inst::Store { src, .. } => f(*src),
        }
    }

    /// Rewrites every used value through `f` (definition operands untouched).
    pub fn map_uses(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Inst::Const { .. } | Inst::Load { .. } => {}
            Inst::Bin { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Call { args, .. } => {
                for a in args.iter_mut() {
                    *a = f(*a);
                }
            }
            Inst::Store { src, .. } => *src = f(*src),
        }
    }

    /// Returns `true` if this is a call instruction.
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. })
    }
}

/// A jump target: destination block plus block arguments.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JumpTarget {
    /// Destination block.
    pub block: BlockId,
    /// Arguments bound to the destination's block parameters.
    pub args: Vec<ValueId>,
}

impl JumpTarget {
    /// Creates a target with no arguments.
    pub fn new(block: BlockId) -> Self {
        JumpTarget { block, args: Vec::new() }
    }

    /// Creates a target with arguments.
    pub fn with_args(block: BlockId, args: Vec<ValueId>) -> Self {
        JumpTarget { block, args }
    }
}

/// A basic-block terminator.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(JumpTarget),
    /// Two-way branch on `cond != 0`.
    Branch {
        /// Condition value (non-zero takes `then_to`).
        cond: ValueId,
        /// Taken when `cond != 0`.
        then_to: JumpTarget,
        /// Taken when `cond == 0`.
        else_to: JumpTarget,
    },
    /// Function return, optionally carrying a value.
    Return(Option<ValueId>),
    /// Statically unreachable control flow.
    Unreachable,
}

impl Terminator {
    /// Calls `f` for every value used by the terminator.
    pub fn for_each_use(&self, mut f: impl FnMut(ValueId)) {
        match self {
            Terminator::Jump(t) => {
                for &a in &t.args {
                    f(a);
                }
            }
            Terminator::Branch { cond, then_to, else_to } => {
                f(*cond);
                for &a in &then_to.args {
                    f(a);
                }
                for &a in &else_to.args {
                    f(a);
                }
            }
            Terminator::Return(Some(v)) => f(*v),
            Terminator::Return(None) | Terminator::Unreachable => {}
        }
    }

    /// Rewrites every used value through `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Terminator::Jump(t) => {
                for a in t.args.iter_mut() {
                    *a = f(*a);
                }
            }
            Terminator::Branch { cond, then_to, else_to } => {
                *cond = f(*cond);
                for a in then_to.args.iter_mut() {
                    *a = f(*a);
                }
                for a in else_to.args.iter_mut() {
                    *a = f(*a);
                }
            }
            Terminator::Return(Some(v)) => *v = f(*v),
            Terminator::Return(None) | Terminator::Unreachable => {}
        }
    }

    /// Returns the successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![t.block],
            Terminator::Branch { then_to, else_to, .. } => vec![then_to.block, else_to.block],
            Terminator::Return(_) | Terminator::Unreachable => vec![],
        }
    }

    /// Calls `f` with a mutable reference to each jump target.
    pub fn for_each_target_mut(&mut self, mut f: impl FnMut(&mut JumpTarget)) {
        match self {
            Terminator::Jump(t) => f(t),
            Terminator::Branch { then_to, else_to, .. } => {
                f(then_to);
                f(else_to);
            }
            Terminator::Return(_) | Terminator::Unreachable => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_mnemonics_round_trip() {
        for op in BinOp::ALL {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("bogus"), None);
    }

    #[test]
    fn binop_eval_is_total() {
        assert_eq!(BinOp::Div.eval(10, 0), 0);
        assert_eq!(BinOp::Rem.eval(10, 0), 0);
        assert_eq!(BinOp::Div.eval(i64::MIN, -1), i64::MIN);
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Shl.eval(1, 65), 2);
        assert_eq!(BinOp::Shr.eval(-8, 1), -4);
    }

    #[test]
    fn binop_eval_comparisons_yield_bool() {
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(BinOp::Ge.eval(1, 2), 0);
        assert_eq!(BinOp::Eq.eval(5, 5), 1);
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn inst_def_and_uses() {
        let i = Inst::Bin {
            dst: ValueId::new(3),
            op: BinOp::Add,
            lhs: ValueId::new(1),
            rhs: ValueId::new(2),
        };
        assert_eq!(i.def(), Some(ValueId::new(3)));
        let mut uses = vec![];
        i.for_each_use(|v| uses.push(v));
        assert_eq!(uses, vec![ValueId::new(1), ValueId::new(2)]);
    }

    #[test]
    fn inst_map_uses_rewrites_operands() {
        let mut i = Inst::Store { global: GlobalId::new(0), src: ValueId::new(4) };
        i.map_uses(|_| ValueId::new(9));
        assert_eq!(i, Inst::Store { global: GlobalId::new(0), src: ValueId::new(9) });
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: ValueId::new(0),
            then_to: JumpTarget::new(BlockId::new(1)),
            else_to: JumpTarget::new(BlockId::new(2)),
        };
        assert_eq!(t.successors(), vec![BlockId::new(1), BlockId::new(2)]);
        assert_eq!(Terminator::Return(None).successors(), vec![]);
    }

    #[test]
    fn only_calls_are_calls() {
        let call = Inst::Call {
            dst: None,
            callee: FuncId::new(0),
            args: vec![],
            site: CallSiteId::new(0),
            inline_path: vec![],
        };
        assert!(call.is_call());
        let store = Inst::Store { global: GlobalId::new(0), src: ValueId::new(0) };
        assert!(!store.is_call());
    }
}
