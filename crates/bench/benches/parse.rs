//! Benches for the IR parser. A served request parses its module from
//! text before anything else runs, so `parse_module` is part of every
//! request's set-up: serve-warm-shaped modules (generated with 4–7
//! internal functions, as the benchmark's warm population is) and the
//! largest SPEC-shaped file of the suite.

use optinline_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optinline_ir::parse_module;
use optinline_workloads::{generate_file, spec_suite, GenParams, Scale};

/// 48 printed modules shaped like serve-warm's.
fn warm_shaped() -> Vec<String> {
    (0..48u64)
        .map(|k| {
            let mut params = GenParams::named(format!("warm/{k:03}"), 0x5EED_0000 + k);
            params.n_internal = 4 + (k % 4) as usize;
            generate_file(&params).to_string()
        })
        .collect()
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("ir_parse");
    // One module per iteration, taken in turn: the time is a mean per
    // serve-warm-shaped module.
    let warm = warm_shaped();
    let mut next = 0;
    group.bench_function("serve_warm_shaped", |b| {
        b.iter(|| {
            next = (next + 1) % warm.len();
            parse_module(&warm[next]).expect("printed IR parses").func_count()
        })
    });
    let largest = spec_suite(Scale::Full)
        .into_iter()
        .flat_map(|bench| bench.files)
        .map(|m| m.to_string())
        .max_by_key(String::len)
        .expect("the suite has files");
    group.bench_with_input(
        BenchmarkId::new("largest_spec_file", largest.len()),
        &largest,
        |b, text| b.iter(|| parse_module(text).expect("printed IR parses").func_count()),
    );
    group.finish();
}

criterion_group!(benches, bench_parse);
criterion_main!(benches);
