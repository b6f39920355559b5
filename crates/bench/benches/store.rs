//! Benches for the content-addressed evaluation store: batched vs
//! one-write-per-put append throughput, scope-open latency on clean vs
//! duplicate-heavy logs (and on a log of serve-warm's mean size, opened
//! afresh or served from the scope the store holds), and size-budgeted
//! GC — the wall-clock side of the `results/perf_store.txt` numbers.

use optinline_bench::{criterion_group, criterion_main, Criterion};
use optinline_ir::{CallSiteId, Measurement};
use optinline_store::{LocalStore, StoreOptions};
use std::path::{Path, PathBuf};

const META: &str = "bench-mod target=x86-like sites=16";
const PUTS: u32 = 512;

fn tmpdir(tag: &str) -> PathBuf {
    let d =
        std::env::temp_dir().join(format!("optinline-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A synthetic key stream: subsets of a 16-site domain, all distinct.
fn key(i: u32) -> Vec<CallSiteId> {
    (0..16).filter(|b| i & (1 << b) != 0).map(CallSiteId::new).collect()
}

/// One write-back buffer flush per ~64 lines vs one `write` syscall per
/// put: the batching payoff the store exists for.
fn bench_put_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_put");
    group.sample_size(10);
    let unbatched = StoreOptions { flush_every_lines: 1, flush_bytes: 1, ..Default::default() };
    for (name, opts) in [("batched", StoreOptions::default()), ("unbatched", unbatched)] {
        let dir = tmpdir(name);
        let mut fp = 1u128;
        group.bench_function(name, |b| {
            b.iter(|| {
                // A fresh fingerprint per iteration: every run appends to
                // its own empty log, so no state leaks across samples.
                fp += 1;
                let store = LocalStore::open(&dir, opts).expect("store opens");
                let scope = store.scope(fp, META).expect("scope opens");
                for i in 0..PUTS {
                    scope.put(key(i), Measurement::size_only(u64::from(i)));
                }
                scope.flush().expect("flush succeeds");
                scope.counters().appends
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Populates one scope with `entries` entries; with `dup`, every entry
/// line is then doubled directly in the log (what repeated cross-process
/// re-puts leave behind), so half the file is dead weight.
fn seed_scope(dir: &Path, fp: u128, entries: u32, dup: bool) {
    let opts = StoreOptions { compact_min_dead_bytes: u64::MAX, ..Default::default() };
    let log_path = {
        let store = LocalStore::open(dir, opts).expect("store opens");
        let scope = store.scope(fp, META).expect("scope opens");
        for i in 0..entries {
            scope.put(key(i), Measurement::size_only(u64::from(i)));
        }
        scope.flush().expect("flush succeeds");
        scope.path().to_path_buf()
    };
    if dup {
        let text = std::fs::read_to_string(&log_path).expect("log readable");
        let entries: Vec<&str> = text.lines().skip(2).collect();
        let mut doubled = text.clone();
        doubled.push_str(&entries.join("\n"));
        doubled.push('\n');
        std::fs::write(&log_path, doubled).expect("log writable");
    }
}

/// Scope-open latency: parse-and-load a clean log vs one where half the
/// lines are superseded duplicates (the state compaction exists to fix),
/// with auto-compaction disabled so the measurement sees the raw cost.
/// `clean83` is a clean log of the mean size a serve-warm scope open
/// reads: 83 entries, opened by a fresh store each iteration. `held83`
/// asks one store for the same scope again each iteration: the store
/// holds it open, so the cost is the registry lookup, the `stat` that
/// checks the log is unchanged and the recency stamp.
fn bench_open_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_open");
    group.sample_size(10);
    let opts = StoreOptions { compact_min_dead_bytes: u64::MAX, ..Default::default() };
    for (name, entries, dup) in
        [("clean83", 83, false), ("clean", PUTS, false), ("dead50", PUTS, true)]
    {
        let dir = tmpdir(name);
        seed_scope(&dir, 0xbeef, entries, dup);
        group.bench_function(name, |b| {
            b.iter(|| {
                let store = LocalStore::open(&dir, opts).expect("store opens");
                let scope = store.scope(0xbeef, META).expect("scope opens");
                scope.len()
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    let dir = tmpdir("held83");
    seed_scope(&dir, 0xbeef, 83, false);
    let store = LocalStore::open(&dir, opts).expect("store opens");
    drop(store.scope(0xbeef, META).expect("scope opens"));
    assert_eq!(store.held().0, 1, "a warm scope is held");
    group.bench_function("held83", |b| {
        b.iter(|| store.scope(0xbeef, META).expect("scope opens").len())
    });
    assert_eq!(store.store_stats().loaded, 83, "every iteration reused the held scope");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

/// Size-budgeted GC over a 16-scope directory: each iteration restores
/// the directory from a template, then evicts down to half the bytes.
fn bench_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_gc");
    group.sample_size(10);
    let template = tmpdir("gc-template");
    {
        let store = LocalStore::open(&template, StoreOptions::default()).expect("store opens");
        for fp in 1u128..=16 {
            let scope = store.scope(fp, META).expect("scope opens");
            for i in 0..64u32 {
                scope.put(key(i), Measurement::size_only(u64::from(i)));
            }
        }
        store.flush_all().expect("flush succeeds");
    }
    let total = dir_bytes(&template);
    let work = tmpdir("gc-work");
    group.bench_function("evict_to_half", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&work);
            copy_dir(&template, &work);
            let store = LocalStore::open(&work, StoreOptions::default()).expect("store opens");
            let report = store.gc(total / 2).expect("gc succeeds");
            assert!(report.after_bytes <= total / 2, "budget violated");
            report.evicted_scopes
        })
    });
    let _ = std::fs::remove_dir_all(&template);
    let _ = std::fs::remove_dir_all(&work);
    group.finish();
}

fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("dir readable") {
        let entry = entry.expect("entry readable");
        let meta = entry.metadata().expect("metadata readable");
        if meta.is_dir() {
            total += dir_bytes(&entry.path());
        } else {
            total += meta.len();
        }
    }
    total
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("dir creatable");
    for entry in std::fs::read_dir(from).expect("dir readable") {
        let entry = entry.expect("entry readable");
        let target = to.join(entry.file_name());
        if entry.metadata().expect("metadata readable").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("file copyable");
        }
    }
}

criterion_group!(benches, bench_put_throughput, bench_open_latency, bench_gc);
criterion_main!(benches);
