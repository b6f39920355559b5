//! Quickstart: build a tiny module, exhaustively find its optimal inlining
//! configuration through the recursively partitioned search, and compare
//! the autotuner and the LLVM-like baseline against that optimum.
//!
//! Run with: `cargo run --example quickstart`

use optinline::prelude::*;

fn main() {
    // A little program: main reads its input from a global (so nothing
    // constant-folds to oblivion), calls `scale` twice and `clamp` once;
    // `scale` itself calls `clamp`. Four inlinable call sites.
    let mut m = Module::new("quickstart");
    let input = m.add_global("input", 40);
    let clamp = m.declare_function("clamp", 1, Linkage::Internal);
    let scale = m.declare_function("scale", 1, Linkage::Internal);
    let main_fn = m.declare_function("main", 0, Linkage::Public);
    {
        let mut b = FuncBuilder::new(&mut m, clamp);
        let p = b.param(0);
        let hi = b.iconst(255);
        let over = b.bin(BinOp::Gt, p, hi);
        let (sat, _) = b.new_block(0);
        let (ok, _) = b.new_block(0);
        b.branch(over, sat, &[], ok, &[]);
        b.switch_to(sat);
        b.ret(Some(hi));
        b.switch_to(ok);
        b.ret(Some(p));
    }
    {
        let mut b = FuncBuilder::new(&mut m, scale);
        let p = b.param(0);
        let three = b.iconst(3);
        let t = b.bin(BinOp::Mul, p, three);
        let v = b.call(clamp, &[t]).unwrap();
        b.ret(Some(v));
    }
    {
        let mut b = FuncBuilder::new(&mut m, main_fn);
        let x = b.load(input);
        let a = b.call(scale, &[x]).unwrap();
        let b2 = b.call(scale, &[a]).unwrap();
        let c = b.call(clamp, &[b2]).unwrap();
        b.ret(Some(c));
    }

    let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
    let n = ev.sites().len();
    println!("module has {n} inlinable call sites -> naive space 2^{n} = {}", 1u64 << n);

    // Exhaustive optimum via the inlining tree (Algorithms 1-2).
    let optimal = optinline::core::tree::optimal_configuration(&ev, PartitionStrategy::Paper);
    println!(
        "recursively partitioned space: {} evaluations (vs {} naive)",
        optimal.evaluations,
        1u64 << n
    );
    println!("optimal size: {} bytes with {}", optimal.size, optimal.config);

    // The LLVM-like baseline heuristic.
    let heuristic = CostModelInliner::default().decide(ev.module(), &X86Like);
    let heuristic_cfg = InliningConfiguration::from_decisions(heuristic);
    let heuristic_size = ev.size_of(&heuristic_cfg);
    println!("baseline -Os-like heuristic: {heuristic_size} bytes with {heuristic_cfg}");

    // The local autotuner (Algorithm 3): one clean-slate session and one
    // initialized with the baseline's decisions, combined per the paper.
    let tuner = Autotuner::new(&ev, ev.sites().clone());
    let clean = tuner.clean_slate(4);
    let init = tuner.run(heuristic_cfg.clone(), 4);
    let tuned = Autotuner::combine([&clean, &init]);
    println!(
        "autotuner: {} bytes (clean-slate best {}, heuristic-init best {}) with {}",
        tuned.size,
        clean.best().size,
        init.best().size,
        tuned.config
    );

    let no_inlining = ev.size_of(&InliningConfiguration::clean_slate());
    println!("\nsummary (bytes, lower is better):");
    println!("  inlining disabled : {no_inlining}");
    println!("  -Os-like baseline : {heuristic_size}");
    println!("  autotuned         : {}", tuned.size);
    println!("  optimal           : {}", optimal.size);
    assert!(tuned.size >= optimal.size);
    assert!(heuristic_size >= optimal.size);
}
