//! The textual IR workflow end to end: write a module as text, parse it,
//! autotune it, and print the optimized module — everything the
//! `optinline` CLI does, as library calls.
//!
//! Run with: `cargo run --example textual_ir`

use optinline::prelude::*;

const SOURCE: &str = r#"module "textual_demo" {
  global @counter = 10
  internal fn twice {
  b0(v0):
    v1 = add v0, v0
    ret v1
  }
  internal fn clamp99 {
  b0(v0):
    v1 = const 99
    v2 = gt v0, v1
    br v2, b1(), b2()
  b1():
    ret v1
  b2():
    ret v0
  }
  public fn main {
  b0():
    v0 = load @counter
    v1 = call twice(v0) site s0
    v2 = call twice(v1) site s1
    v3 = call clamp99(v2) site s2
    store @counter, v3
    ret v3
  }
}"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = optinline::ir::parse_module(SOURCE)?;
    optinline::ir::verify_module(&module)?;
    println!(
        "parsed `{}`: {} functions, {} inlinable sites\n",
        module.name,
        module.func_count(),
        module.inlinable_sites().len()
    );

    // Run it before...
    let before = optinline::ir::interp::run_main(&module)?;
    println!("interpreted: returns {:?}, counter = {}", before.ret, before.globals[0]);

    // ...find the optimal inlining...
    let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
    let optimal = optinline::core::tree::optimal_configuration(&ev, PartitionStrategy::Paper);
    println!(
        "\noptimal configuration ({} of {} sites inlined, {} B): {}",
        optimal.config.inlined_count(),
        ev.sites().len(),
        optimal.size,
        optimal.config
    );

    // ...compile under it and show the result.
    let optimized = ev.compile(&optimal.config);
    let after = optinline::ir::interp::run_main(&optimized)?;
    assert_eq!(before.observable(), after.observable());
    println!("\noptimized module (same observable behaviour, verified):\n");
    print!("{optimized}");
    Ok(())
}
