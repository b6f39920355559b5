//! Bring your own size model: implement [`Target`] for a hypothetical
//! embedded ISA and watch the optimal inlining configuration change with
//! the cost structure — the same program has *different* optimal inlining
//! on different targets, which is why the paper's method takes the size
//! metric as an input rather than baking one in.
//!
//! Run with: `cargo run --release --example custom_target`

use optinline::prelude::*;
use optinline_ir::{Inst, Terminator};

/// A Thumb-ish model: 2-byte ops, 4-byte calls, tiny function overhead —
/// call-heavy code is almost free, so inlining rarely pays.
#[derive(Debug)]
struct ThumbLike;

impl Target for ThumbLike {
    fn name(&self) -> &str {
        "thumb-like"
    }

    fn inst_bytes(&self, inst: &Inst) -> u64 {
        match inst {
            Inst::Const { value, .. } => {
                if (-128..128).contains(value) {
                    2
                } else {
                    6 // literal pool load
                }
            }
            Inst::Bin { .. } => 2,
            Inst::Call { args, .. } => 4 + args.len() as u64,
            Inst::Load { .. } | Inst::Store { .. } => 4,
        }
    }

    fn terminator_bytes(&self, term: &Terminator) -> u64 {
        match term {
            Terminator::Jump(t) => 2 + 2 * t.args.len() as u64,
            Terminator::Branch { then_to, else_to, .. } => {
                4 + 2 * (then_to.args.len() + else_to.args.len()) as u64
            }
            Terminator::Return(_) => 2,
            Terminator::Unreachable => 2,
        }
    }

    fn function_overhead(&self, _defs: u64) -> u64 {
        4
    }

    fn alignment(&self) -> u64 {
        4
    }
}

fn optimal_inline_count(module: &Module, target: Box<dyn Target>) -> (usize, u64, String) {
    let ev = SizeEvaluator::new(module.clone(), target, false);
    let outcome = optinline::core::tree::optimal_configuration(&ev, PartitionStrategy::Paper);
    (outcome.config.inlined_count(), outcome.size, ev.target().name().to_string())
}

fn main() {
    let module = optinline::workloads::generate_file(&optinline::workloads::GenParams {
        n_internal: 7,
        call_density: 1.4,
        const_arg_prob: 0.4,
        ..optinline::workloads::GenParams::named("target_demo", 31)
    });
    let sites = module.inlinable_sites().len();
    println!("one module, {sites} inlinable call sites, three size models:\n");
    println!("{:<12} {:>16} {:>14}", "target", "optimal inlines", "optimal size");
    for target in [Box::new(X86Like) as Box<dyn Target>, Box::new(WasmLike), Box::new(ThumbLike)] {
        let (inlines, size, name) = optimal_inline_count(&module, target);
        println!("{name:<12} {inlines:>13}/{sites} {size:>13} B");
    }
    println!("\nThe optimum is a property of the size model, not the program:");
    println!("cheap 2-byte bodies with 4-byte calls (thumb-like) favour");
    println!("absorbing more callees than x86's 16-byte-aligned functions,");
    println!("while wasm-like locals pressure pulls the other way — the");
    println!("target-dependence behind the paper's SQLite/WASM contrast");
    println!("(§5.2.3), reproduced with a 30-line custom Target.");
}
