//! Integration tests of the local store: crash/corruption tolerance,
//! write batching, bounded resident memory, compaction, size-budgeted GC
//! by log mtime, and a concurrent appenders-vs-compaction stress run.

use optinline_ir::{CallSiteId, Measurement};
use optinline_store::{scope_rel_path, LocalStore, StoreOptions, StoreStats, HEADER};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("optinline-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn k(ids: &[u32]) -> Vec<CallSiteId> {
    ids.iter().map(|&i| CallSiteId::new(i)).collect()
}

fn m(size: u64) -> Measurement {
    Measurement::size_only(size)
}

const META: &str = "mod-a target=t sites=4";

/// Absolute path of the sharded log for `fp` under `root`.
fn log_path(root: &Path, fp: u128) -> PathBuf {
    let (shard, file) = scope_rel_path(fp);
    root.join(shard).join(file)
}

/// Sets a log's mtime — its recency in GC order.
fn set_mtime(path: &Path, at: SystemTime) {
    std::fs::File::options().append(true).open(path).unwrap().set_modified(at).unwrap();
}

fn mtime(path: &Path) -> SystemTime {
    std::fs::metadata(path).unwrap().modified().unwrap()
}

/// Evicts one log at a time (a budget one byte under the directory) and
/// returns the fingerprints in the order GC took them.
fn eviction_order(store: &LocalStore, root: &Path, fps: &[u128]) -> Vec<u128> {
    let mut order: Vec<u128> = Vec::new();
    for _ in fps {
        let report = store.gc(store.disk_bytes().unwrap() - 1).unwrap();
        assert_eq!(report.evicted_scopes, 1, "{report:?}");
        let gone = fps.iter().find(|fp| !order.contains(fp) && !log_path(root, **fp).exists());
        order.push(*gone.unwrap());
    }
    order
}

#[test]
fn round_trips_across_reopen() {
    let dir = tmpdir("roundtrip");
    {
        let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        let scope = store.scope(0xa1, META).unwrap();
        scope.put(k(&[]), m(100));
        scope.put(k(&[1, 3]), m(80));
    }
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(0xa1, META).unwrap();
    assert_eq!(scope.counters().loaded, 2);
    assert_eq!(scope.get(&k(&[])), Some(m(100)));
    assert_eq!(scope.get(&k(&[1, 3])), Some(m(80)));
    assert_eq!(scope.get(&k(&[2])), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn distinct_fingerprints_use_distinct_sharded_logs() {
    let dir = tmpdir("distinct");
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let a = store.scope(0x0100_0000_0000_0000_0000_0000_0000_0001_u128, META).unwrap();
    let b = store.scope(0x0200_0000_0000_0000_0000_0000_0000_0002_u128, META).unwrap();
    a.put(k(&[]), m(1));
    b.put(k(&[]), m(2));
    store.flush_all().unwrap();
    assert_ne!(a.path(), b.path());
    assert_ne!(
        a.path().parent().unwrap(),
        b.path().parent().unwrap(),
        "different fingerprint prefixes land in different shard dirs"
    );
    assert_eq!(a.get(&k(&[])), Some(m(1)));
    assert_eq!(b.get(&k(&[])), Some(m(2)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_lines_are_skipped_individually() {
    let dir = tmpdir("corrupt");
    let fp = 0xc0ffee_u128;
    let path = log_path(&dir, fp);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(
        &path,
        format!(
            "{HEADER}\nmeta mod-a target=t sites=4\n100 -\nnot a number s1\n\
             90 s2,s1\n80 s1,s3\n\u{1F4A3}\n70 s9\n"
        ),
    )
    .unwrap();
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.counters().loaded, 3, "only well-formed, sorted lines survive");
    assert_eq!(scope.get(&k(&[])), Some(m(100)));
    assert_eq!(scope.get(&k(&[1, 3])), Some(m(80)));
    assert_eq!(scope.get(&k(&[9])), Some(m(70)));
    assert_eq!(scope.get(&k(&[1, 2])), None, "unsorted line was damage, not data");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_final_line_is_skipped_and_terminated() {
    let dir = tmpdir("torn");
    let fp = 0x70a1_u128;
    let path = log_path(&dir, fp);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, format!("{HEADER}\nmeta mod-a target=t sites=4\n100 -\n80 s1,s"))
        .unwrap();
    {
        let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        let scope = store.scope(fp, META).unwrap();
        assert_eq!(scope.counters().loaded, 1, "the torn tail is not data");
        assert_eq!(scope.get(&k(&[])), Some(m(100)));
        // A fresh put after the torn tail must not splice into it.
        scope.put(k(&[7]), m(60));
    }
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.get(&k(&[7])), Some(m(60)), "post-crash appends survive reopen");
    assert_eq!(scope.get(&k(&[])), Some(m(100)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_header_restarts_the_file() {
    let dir = tmpdir("header");
    let fp = 0x4ead_u128;
    let path = log_path(&dir, fp);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, "optinline-store v99\nmeta mod-a target=t sites=4\n100 -\n").unwrap();
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.counters().loaded, 0, "foreign format is never trusted");
    assert_eq!(scope.get(&k(&[])), None);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with(HEADER), "file was restarted under the current header");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn meta_mismatch_restarts_the_file() {
    let dir = tmpdir("meta");
    let fp = 0x3e7a_u128;
    let path = log_path(&dir, fp);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, format!("{HEADER}\nmeta other-module target=x sites=9\n100 -\n"))
        .unwrap();
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.counters().loaded, 0, "another module's sizes must not be served");
    assert_eq!(scope.get(&k(&[])), None);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("meta mod-a target=t sites=4"), "restarted under our identity");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn same_fingerprint_different_meta_in_process_restarts() {
    let dir = tmpdir("collide");
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let a = store.scope(0x11, META).unwrap();
    a.put(k(&[]), m(100));
    a.flush().unwrap();
    let b = store.scope(0x11, "other target=y sites=1").unwrap();
    assert_eq!(b.get(&k(&[])), None, "a colliding identity never sees foreign entries");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn puts_are_batched_into_few_appends() {
    let dir = tmpdir("batch");
    let opts = StoreOptions { flush_every_lines: 8, ..StoreOptions::default() };
    let store = LocalStore::open(&dir, opts).unwrap();
    let scope = store.scope(0xba, META).unwrap();
    for i in 0..20 {
        scope.put(k(&[i]), m(100 + u64::from(i)));
    }
    scope.flush().unwrap();
    let c = scope.counters();
    assert_eq!(c.puts, 20);
    assert_eq!(c.flushed_lines, 20, "every committed line reaches disk");
    assert_eq!(c.appends, 3, "20 puts at 8 lines/flush = 2 threshold flushes + 1 final");

    // One write per put for comparison: flush_every_lines = 1.
    let unbatched =
        LocalStore::open(&dir, StoreOptions { flush_every_lines: 1, ..StoreOptions::default() })
            .unwrap();
    let scope1 = unbatched.scope(0xbb, META).unwrap();
    for i in 0..20 {
        scope1.put(k(&[i]), m(100 + u64::from(i)));
    }
    assert_eq!(scope1.counters().appends, 20, "one syscall per put without batching");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pending_entries_survive_via_drop_flush() {
    let dir = tmpdir("dropflush");
    {
        let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        let scope = store.scope(0xdf, META).unwrap();
        scope.put(k(&[4]), m(44));
        assert_eq!(scope.counters().appends, 0, "still buffered");
    }
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(0xdf, META).unwrap();
    assert_eq!(scope.get(&k(&[4])), Some(m(44)), "drop flushed the buffer");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resident_map_is_bounded_but_disk_keeps_everything() {
    let dir = tmpdir("bound");
    let opts = StoreOptions { max_resident_entries: 4, ..StoreOptions::default() };
    {
        let store = LocalStore::open(&dir, opts).unwrap();
        let scope = store.scope(0xb0, META).unwrap();
        for i in 0..10 {
            scope.put(k(&[i]), m(u64::from(i)));
        }
        assert!(scope.len() <= 4, "resident map respects the bound");
        assert!(scope.counters().resident_evictions >= 6);
    }
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(0xb0, META).unwrap();
    assert_eq!(scope.counters().loaded, 10, "evicted entries were still committed");
    for i in 0..10 {
        assert_eq!(scope.get(&k(&[i])), Some(m(u64::from(i))));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_drops_duplicates_and_preserves_entries() {
    let dir = tmpdir("compact");
    let fp = 0xcafe_u128;
    let path = log_path(&dir, fp);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let mut body = format!("{HEADER}\nmeta mod-a target=t sites=4\n");
    for _ in 0..50 {
        body.push_str("100 -\n80 s1,s3\n");
    }
    std::fs::write(&path, &body).unwrap();
    let before = std::fs::metadata(&path).unwrap().len();
    // Generous thresholds so open does NOT auto-compact; we drive it.
    let opts = StoreOptions { compact_min_dead_bytes: u64::MAX, ..StoreOptions::default() };
    let store = LocalStore::open(&dir, opts).unwrap();
    let scope = store.scope(fp, META).unwrap();
    let (b, a) = scope.compact().unwrap();
    assert_eq!(b, before);
    assert!(a < b, "duplicates reclaimed: {b} -> {a}");
    assert_eq!(scope.get(&k(&[])), Some(m(100)));
    assert_eq!(scope.get(&k(&[1, 3])), Some(m(80)));
    // And entries put after compaction still land.
    scope.put(k(&[9]), m(70));
    scope.flush().unwrap();
    drop(scope);
    drop(store);
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.counters().loaded, 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_auto_compacts_when_dead_ratio_is_crossed() {
    let dir = tmpdir("autocompact");
    let fp = 0xac_u128;
    let path = log_path(&dir, fp);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let mut body = format!("{HEADER}\nmeta mod-a target=t sites=4\n");
    for _ in 0..2000 {
        body.push_str("100 -\n");
    }
    std::fs::write(&path, &body).unwrap();
    let before = std::fs::metadata(&path).unwrap().len();
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(fp, META).unwrap();
    let after = std::fs::metadata(&path).unwrap().len();
    assert!(after < before / 10, "mostly-dead log shrank on open: {before} -> {after}");
    assert_eq!(scope.counters().compactions, 1);
    assert_eq!(scope.get(&k(&[])), Some(m(100)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gc_enforces_the_byte_budget_lru_first() {
    let dir = tmpdir("gc");
    // Build 8 scopes; drop all handles.
    {
        let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        for fp in 1u128..=8 {
            let scope = store.scope(fp, META).unwrap();
            for i in 0..50 {
                scope.put(k(&[i]), m(u64::from(i)));
            }
            scope.flush().unwrap();
        }
    }
    // Recency is the logs' mtimes: give them an order unrelated to the
    // fingerprints, coldest first.
    let coldest_first = [5u128, 2, 8, 1, 7, 3, 6, 4];
    let base = SystemTime::now() - Duration::from_secs(3600);
    for (rank, &fp) in coldest_first.iter().enumerate() {
        set_mtime(&log_path(&dir, fp), base + Duration::from_secs(rank as u64 * 60));
    }
    // A stray file at the root (here a pre-store flat cache file) counts
    // toward the budget but is never GC's to delete.
    let stray = dir.join(format!("{:032x}.sizes", 0x99u128));
    let stray_body = "optinline-cache v2\nmeta old target=t sites=1\n1 -\n";
    std::fs::write(&stray, stray_body).unwrap();

    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let full = store.disk_bytes().unwrap();
    let budget = full / 2;
    let report = store.gc(budget).unwrap();
    assert_eq!(report.after_bytes, store.disk_bytes().unwrap());
    assert!(
        report.after_bytes <= budget,
        "post-GC size {} must fit budget {budget}",
        report.after_bytes
    );
    assert_eq!(std::fs::read_to_string(&stray).unwrap(), stray_body, "stray file untouched");
    let evicted = report.evicted_scopes as usize;
    assert!((1..8).contains(&evicted), "{report:?}");
    // LRU order: exactly the coldest mtimes died.
    for (rank, &fp) in coldest_first.iter().enumerate() {
        assert_eq!(!log_path(&dir, fp).exists(), rank < evicted, "scope {fp} at rank {rank}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopening_or_flushing_a_scope_moves_it_behind_every_other_log() {
    let dir = tmpdir("recency");
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let fps = [0xa1u128, 0xb2, 0xc3, 0xd4];
    for fp in fps {
        store.scope(fp, META).unwrap().put(k(&[1]), m(1));
    }
    // A handle that stays open: its next flush is the use.
    let flushed = store.scope(0xc3, META).unwrap();
    let base = SystemTime::now() - Duration::from_secs(3600);
    for (rank, fp) in fps.into_iter().enumerate() {
        set_mtime(&log_path(&dir, fp), base + Duration::from_secs(rank as u64 * 60));
    }

    drop(store.scope(0xa1, META).unwrap());
    flushed.put(k(&[2]), m(2));
    flushed.flush().unwrap();
    drop(flushed);
    assert_eq!(eviction_order(&store, &dir, &fps), [0xb2, 0xd4, 0xa1, 0xc3]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_keeps_the_log_mtime() {
    let dir = tmpdir("compact-mtime");
    let duplicated = |fp| {
        let path = log_path(&dir, fp);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{HEADER}\nmeta mod-a target=t sites=4\n100 -\n100 -\n"))
            .unwrap();
        path
    };
    let at = SystemTime::UNIX_EPOCH + Duration::from_secs(1_600_000_000);
    let opts = StoreOptions { compact_min_dead_bytes: u64::MAX, ..StoreOptions::default() };
    let store = LocalStore::open(&dir, opts).unwrap();

    // A live handle with nothing to flush.
    let live = duplicated(0x1c);
    let scope = store.scope(0x1c, META).unwrap();
    set_mtime(&live, at);
    let (before, after) = scope.compact().unwrap();
    assert!(after < before, "{before} -> {after}");
    assert_eq!(mtime(&live), at, "a live log's compaction is not a use");
    drop(scope);

    // A closed log.
    let closed = duplicated(0x2c);
    set_mtime(&closed, at);
    assert!(store.compact_all().unwrap() > 0);
    assert_eq!(mtime(&closed), at, "a closed log's compaction is not a use");
    assert_eq!(mtime(&live), at);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gc_never_evicts_scopes_with_live_handles() {
    let dir = tmpdir("gc-live");
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let held = store.scope(0x77, META).unwrap();
    for i in 0..50 {
        held.put(k(&[i]), m(u64::from(i)));
    }
    held.flush().unwrap();
    let report = store.gc(0).unwrap();
    assert!(held.path().exists(), "open scope survives even a zero budget");
    assert_eq!(report.evicted_scopes, 0);
    assert_eq!(held.get(&k(&[3])), Some(m(3)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_stats_sum_live_and_dropped_scopes_and_count_gc() {
    let dir = tmpdir("store-stats");
    // An earlier process left one entry for the scope that stays open.
    LocalStore::open(&dir, StoreOptions::default())
        .unwrap()
        .scope(0x51, META)
        .unwrap()
        .put(k(&[9]), m(90));
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let live = store.scope(0x51, META).unwrap();
    live.put(k(&[1]), m(10));
    live.put(k(&[2]), m(20));
    live.flush().unwrap();
    assert_eq!(live.get(&k(&[9])), Some(m(90)));
    assert_eq!(live.get(&k(&[3])), None);
    let gone = store.scope(0x52, META).unwrap();
    gone.put(k(&[5]), m(50));
    gone.flush().unwrap();
    assert_eq!(gone.get(&k(&[5])), Some(m(50)));
    assert_eq!(gone.get(&k(&[6])), None);
    drop(gone);
    let gone_bytes = std::fs::metadata(log_path(&dir, 0x52)).unwrap().len();

    let report = store.gc(0).unwrap();
    assert_eq!(report.evicted_scopes, 1, "only the dropped scope's log can go");
    assert!(!log_path(&dir, 0x52).exists());
    // The dropped handle's counters reach the snapshot through the
    // store's retired accumulator, the live one's from its handle.
    assert_eq!(
        store.store_stats(),
        StoreStats {
            hits: 2,
            misses: 2,
            puts: 3,
            appends: 2,
            flushed_lines: 3,
            loaded: 1,
            gc_evicted_scopes: 1,
            gc_evicted_bytes: gone_bytes,
            ..StoreStats::default()
        }
    );
    drop(live);
    assert_eq!(store.store_stats().puts, 3, "a drop moves counters, never doubles them");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_counts_damage() {
    let dir = tmpdir("verify");
    {
        let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        let scope = store.scope(0x51, META).unwrap();
        scope.put(k(&[]), m(10));
        scope.put(k(&[2]), m(8));
    }
    // Damage one log line.
    let path = log_path(&dir, 0x51);
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("garbage line\n");
    std::fs::write(&path, text).unwrap();

    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let report = store.verify().unwrap();
    assert_eq!(report.scopes, 1);
    assert_eq!(report.entries, 2);
    assert_eq!(report.malformed_lines, 1);
    assert!(!report.clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mixed_format_logs_round_trip_and_verify_reports_the_mix() {
    let dir = tmpdir("mixedfmt");
    let fp = 0x3f_u128;
    // Hand-write a log mixing old size-only lines with cycles-carrying
    // measurement lines — the shape of a store mid-migration.
    let path = log_path(&dir, fp);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(
        &path,
        format!("{HEADER}\nmeta mod-a target=t sites=4\n100 -\n80+900 s1,s3\n70 s9\n"),
    )
    .unwrap();
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.get(&k(&[])), Some(m(100)), "old lines decode as size-only");
    assert_eq!(
        scope.get(&k(&[1, 3])),
        Some(Measurement::with_cycles(80, 900)),
        "measurement lines keep their cycles"
    );
    scope.put(k(&[2]), Measurement::with_cycles(60, 500));
    drop(scope);
    let report = store.verify().unwrap();
    assert!(report.clean(), "a mixed log is healthy, not damaged: {report:?}");
    assert_eq!(report.size_only_lines, 2);
    assert_eq!(report.measurement_lines, 2);
    assert_eq!(report.mix.len(), 1);
    assert_eq!(report.mix[0].fingerprint, fp);
    assert_eq!(report.mix[0].size_only_lines, 2);
    assert_eq!(report.mix[0].measurement_lines, 2);

    // Compaction preserves both grammars byte-for-byte per entry.
    store.compact_all().unwrap();
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.get(&k(&[1, 3])), Some(Measurement::with_cycles(80, 900)));
    assert_eq!(scope.get(&k(&[2])), Some(Measurement::with_cycles(60, 500)));
    assert_eq!(scope.get(&k(&[9])), Some(m(70)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn size_only_entries_upgrade_to_measurements_but_never_downgrade() {
    let dir = tmpdir("upgrade");
    let fp = 0x40_u128;
    {
        let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        let scope = store.scope(fp, META).unwrap();
        scope.put(k(&[1]), m(80));
        // A later measurement of the same key carries cycles: upgraded.
        scope.put(k(&[1]), Measurement::with_cycles(80, 900));
        assert_eq!(scope.get(&k(&[1])), Some(Measurement::with_cycles(80, 900)));
        // The reverse direction is a no-op: cycles are never dropped.
        scope.put(k(&[1]), m(80));
        assert_eq!(scope.get(&k(&[1])), Some(Measurement::with_cycles(80, 900)));
    }
    // The upgrade survives a reload (the log holds both lines; the richer
    // one wins) and a compaction (the dead size-only line is dropped).
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    {
        let scope = store.scope(fp, META).unwrap();
        assert_eq!(scope.counters().loaded, 1);
        assert_eq!(scope.get(&k(&[1])), Some(Measurement::with_cycles(80, 900)));
    }
    store.compact_all().unwrap();
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.get(&k(&[1])), Some(Measurement::with_cycles(80, 900)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shared_handles_coalesce_per_directory() {
    let dir = tmpdir("shared");
    let a = LocalStore::shared(&dir).unwrap();
    let b = LocalStore::shared(&dir).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "same directory, same store");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two threads hammer the same scope with disjoint keys while a third
/// repeatedly compacts and a fourth runs GC with an unlimited budget.
/// Afterward: no committed entry lost, no torn line, and the read-only
/// census agrees with verify.
#[test]
fn concurrent_appenders_survive_compaction_and_gc() {
    let dir = tmpdir("stress");
    let per_thread: u32 = 400;
    {
        let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        let scope = store.scope(0x57, META).unwrap();
        let writer = |base: u32| {
            let scope = scope.clone();
            move || {
                for i in 0..per_thread {
                    scope.put(k(&[base + i]), m(u64::from(base + i)));
                    if i % 64 == 0 {
                        let _ = scope.flush();
                    }
                }
            }
        };
        let compactor = {
            let scope = scope.clone();
            move || {
                for _ in 0..20 {
                    scope.compact().unwrap();
                    std::thread::yield_now();
                }
            }
        };
        let collector = {
            let store = Arc::clone(&store);
            move || {
                for _ in 0..10 {
                    store.gc(u64::MAX).unwrap();
                    std::thread::yield_now();
                }
            }
        };
        let handles = vec![
            std::thread::spawn(writer(0)),
            std::thread::spawn(writer(10_000)),
            std::thread::spawn(compactor),
            std::thread::spawn(collector),
        ];
        for h in handles {
            h.join().unwrap();
        }
        store.flush_all().unwrap();
    }

    // Reopen cold: every committed entry must be on disk, exactly once
    // after verification, with zero damage.
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let report = store.verify().unwrap();
    assert!(report.clean(), "no torn or malformed lines: {report:?}");
    assert_eq!(report.entries, u64::from(per_thread) * 2, "no committed entry lost");
    let scope = store.scope(0x57, META).unwrap();
    for base in [0u32, 10_000] {
        for i in 0..per_thread {
            assert_eq!(scope.get(&k(&[base + i])), Some(m(u64::from(base + i))));
        }
    }
    assert_eq!(store.census().unwrap(), report);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: a stray non-`.log` file in a shard directory used to be a
/// panic risk in every scan-based operation; now it is skipped, counted,
/// and survives reopen / verify / gc untouched.
#[test]
fn foreign_files_in_shard_dirs_are_skipped_and_counted() {
    let dir = tmpdir("foreign");
    let fp = 0xf0_u128;
    {
        let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        let scope = store.scope(fp, META).unwrap();
        scope.put(k(&[]), m(100));
        scope.put(k(&[1]), m(90));
    }
    // Drop foreign files into the scope's shard directory.
    let shard = log_path(&dir, fp).parent().unwrap().to_path_buf();
    std::fs::write(shard.join("README.txt"), "someone's notes\n").unwrap();
    std::fs::write(shard.join("stray"), "no extension\n").unwrap();
    std::fs::write(shard.join("deadbeef.log"), "log extension, wrong stem length\n").unwrap();

    // Reopening and scanning must neither panic nor misread the strays.
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let report = store.verify().unwrap();
    assert!(report.clean(), "strays are not damage: {report:?}");
    assert_eq!(report.scopes, 1, "only the real log is a scope");
    assert_eq!(report.entries, 2);
    assert_eq!(report.foreign_files, 3, "every stray counted");
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.get(&k(&[])), Some(m(100)));
    drop(scope);

    // GC walks the same directories; strays survive it untouched.
    store.gc(0).unwrap();
    assert!(shard.join("README.txt").exists(), "gc never deletes foreign files");
    assert!(shard.join("stray").exists());
    assert!(shard.join("deadbeef.log").exists());
    assert!(!log_path(&dir, fp).exists(), "the real log was evictable");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Explicit `flush()` makes buffered puts durable while every handle stays
/// alive — the path a long-running daemon relies on, where drop-flush
/// never runs between requests.
#[test]
fn explicit_flush_commits_buffered_puts_without_drop() {
    let dir = tmpdir("explicit-flush");
    // Thresholds high enough that nothing flushes on its own.
    let opts = StoreOptions {
        flush_every_lines: 1 << 20,
        flush_bytes: 1 << 30,
        ..StoreOptions::default()
    };
    let store = LocalStore::open(&dir, opts).unwrap();
    let scope = store.scope(0xf1, META).unwrap();
    scope.put(k(&[]), m(100));
    scope.put(k(&[2]), m(80));
    let on_disk = std::fs::read_to_string(log_path(&dir, 0xf1)).unwrap();
    assert_eq!(on_disk.lines().count(), 2, "header + meta only: puts still buffered in memory");

    store.flush_all().unwrap();
    let on_disk = std::fs::read_to_string(log_path(&dir, 0xf1)).unwrap();
    assert_eq!(on_disk.lines().count(), 4, "flush committed both buffered lines");
    assert!(on_disk.ends_with('\n'), "no torn tail");
    // A second cold reader (fresh store, same directory) sees them while
    // the writing handles are still alive.
    let cold = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let cold_scope = cold.scope(0xf1, META).unwrap();
    assert_eq!(cold_scope.counters().loaded, 2, "durable without any drop");
    drop(cold_scope);
    drop(scope);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writers open scopes, put, and drop while a collector loops a tiny
/// budget: scopes being (re)opened mid-pass must never lose fresh puts,
/// and the store must verify clean afterwards.
#[test]
fn concurrent_gc_and_put_never_resurrect_evicted_scopes() {
    let dir = tmpdir("gc-race");
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let rounds: u32 = 60;
    let writer = |lane: u128| {
        let store = Arc::clone(&store);
        move || {
            for r in 0..rounds {
                let fp = lane * 0x1_0000 + u128::from(r % 7);
                let scope = store.scope(fp, META).unwrap();
                for i in 0..20 {
                    scope.put(k(&[r * 100 + i]), m(u64::from(i)));
                }
                // Puts made while the handle lives must survive the
                // collector: live scopes are never evicted.
                assert_eq!(scope.get(&k(&[r * 100])), Some(m(0)));
                drop(scope);
                std::thread::yield_now();
            }
        }
    };
    let collector = {
        let store = Arc::clone(&store);
        move || {
            for _ in 0..40 {
                store.gc(256).unwrap();
                std::thread::yield_now();
            }
        }
    };
    let handles = vec![
        std::thread::spawn(writer(1)),
        std::thread::spawn(writer(2)),
        std::thread::spawn(writer(3)),
        std::thread::spawn(collector),
    ];
    for h in handles {
        h.join().unwrap();
    }

    let report = store.verify().unwrap();
    assert!(report.clean(), "no damage after the race: {report:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_recovery_leaves_verify_clean() {
    let dir = tmpdir("torn-clean");
    let fp = 0x7c1e_u128;
    let path = log_path(&dir, fp);
    {
        let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        let scope = store.scope(fp, META).unwrap();
        scope.put(k(&[]), m(100));
        scope.put(k(&[2]), m(90));
        scope.flush().unwrap();
    }
    // Crash mid-append: a partial entry line with no trailing newline.
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("80 s1,s");
    std::fs::write(&path, &text).unwrap();

    // Reopen truncates the torn bytes instead of terminating them, so a
    // subsequent structural scan finds zero damage.
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.counters().loaded, 2, "the torn entry was never data");
    let report = store.verify().unwrap();
    assert!(report.clean(), "verify must be clean after crash recovery: {report:?}");
    assert_eq!(report.malformed_lines, 0);
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert!(on_disk.ends_with('\n'), "the log ends on a line boundary again");
    assert!(!on_disk.contains("s1,s"), "the torn bytes are gone");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_repairs_a_torn_tail_it_finds() {
    let dir = tmpdir("verify-repair");
    let fp = 0x7c2e_u128;
    let path = log_path(&dir, fp);
    {
        let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        let scope = store.scope(fp, META).unwrap();
        scope.put(k(&[]), m(100));
        scope.flush().unwrap();
    }
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("99 s3");
    std::fs::write(&path, &text).unwrap();

    // No reopen of the scope: verify itself is the recovery pass.
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let report = store.verify().unwrap();
    assert_eq!(report.repaired_logs, 1, "the torn tail was truncated by the scan");
    assert!(report.clean(), "repair leaves no damage behind: {report:?}");
    assert_eq!(report.entries, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_sweeps_orphaned_tmp_files_but_spares_live_ones() {
    let dir = tmpdir("tmp-sweep");
    let fp = 0x5e1f_u128;
    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    let scope = store.scope(fp, META).unwrap();
    scope.put(k(&[]), m(10));
    scope.flush().unwrap();

    // An orphan from a dead writer (pid far outside any live range) and
    // one belonging to this very process.
    let shard = log_path(&dir, fp).parent().unwrap().to_path_buf();
    let orphan = shard.join("deadbeef.tmp.999999999");
    let own = shard.join(format!("cafe.tmp.{}", std::process::id()));
    std::fs::write(&orphan, "half an image").unwrap();
    std::fs::write(&own, "in progress").unwrap();

    let report = store.verify().unwrap();
    assert_eq!(report.stale_tmp_files, 1, "exactly the orphan was swept: {report:?}");
    assert!(!orphan.exists(), "the dead writer's temp file is gone");
    assert!(own.exists(), "this process's own temp file is untouched");
    assert!(report.clean());
    let _ = std::fs::remove_file(&own);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What opening one hand-written log leaves behind: the handle's load
/// counters, its resident entries, the log's bytes after the open, and
/// what a compaction then rewrites.
#[derive(Debug, PartialEq)]
struct Opened {
    loaded: u64,
    resident_evictions: u64,
    len: usize,
    /// `get` of each [`PROBES`] key, in order.
    resident: Vec<Option<Measurement>>,
    log: String,
    compact: (u64, u64),
}

/// The keys the log shapes below write.
const PROBES: [&[u32]; 4] = [&[], &[1], &[1, 3], &[9]];

/// Opens a scope over `log` with room for two resident entries, so a
/// third loaded entry evicts the oldest.
fn open_log_shape(tag: &str, log: &[u8]) -> Opened {
    let dir = tmpdir(tag);
    let fp = 0x5aa9e_u128;
    let path = log_path(&dir, fp);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, log).unwrap();
    let opts = StoreOptions { max_resident_entries: 2, ..StoreOptions::default() };
    let store = LocalStore::open(&dir, opts).unwrap();
    let scope = store.scope(fp, META).unwrap();
    let counters = scope.counters();
    let opened = Opened {
        loaded: counters.loaded,
        resident_evictions: counters.resident_evictions,
        len: scope.len(),
        resident: PROBES.iter().map(|key| scope.get(&k(key))).collect(),
        log: String::from_utf8(std::fs::read(&path).unwrap()).unwrap(),
        compact: scope.compact().unwrap(),
    };
    drop(scope);
    std::fs::remove_dir_all(&dir).unwrap();
    opened
}

/// Every log shape a crash, an editor or a second writer can leave, as
/// the open loads it and a compaction rewrites it. These pin the bytes
/// the loader must treat alike however it reads the log.
#[test]
fn log_shapes_load_and_compact_as_pinned() {
    let fresh = format!("{HEADER}\nmeta mod-a target=t sites=4\n");
    let len = |s: &str| s.len() as u64;

    // A torn tail after valid entries: truncated at open, three entries
    // loaded, the oldest evicted from the two resident slots.
    let intact = format!("{fresh}100 -\n80 s1,s3\n70 s9\n");
    let torn = format!("{intact}60 s2,s");
    assert_eq!(
        open_log_shape("shape-torn", torn.as_bytes()),
        Opened {
            loaded: 3,
            resident_evictions: 1,
            len: 2,
            resident: vec![None, None, Some(m(80)), Some(m(70))],
            log: intact.clone(),
            compact: (len(&intact), len(&intact)),
        }
    );

    // One line with no newline (a crash while stamping a fresh header):
    // all of it is a torn write, and the open restamps the log.
    assert_eq!(
        open_log_shape("shape-oneline", HEADER.as_bytes()),
        Opened {
            loaded: 0,
            resident_evictions: 0,
            len: 0,
            resident: vec![None; 4],
            log: fresh.clone(),
            compact: (len(&fresh), len(&fresh)),
        }
    );

    // A header with no meta line: its identity is unrecorded, so it
    // restarts.
    assert_eq!(
        open_log_shape("shape-header", format!("{HEADER}\n").as_bytes()),
        Opened {
            loaded: 0,
            resident_evictions: 0,
            len: 0,
            resident: vec![None; 4],
            log: fresh.clone(),
            compact: (len(&fresh), len(&fresh)),
        }
    );

    // CRLF line endings: each line loads without its `\r`, the open
    // leaves the bytes alone, and compaction rewrites them with `\n`.
    let crlf = format!("{HEADER}\r\nmeta mod-a target=t sites=4\r\n100 -\r\n80 s1,s3\r\n");
    let lf = format!("{fresh}100 -\n80 s1,s3\n");
    assert_eq!(
        open_log_shape("shape-crlf", crlf.as_bytes()),
        Opened {
            loaded: 2,
            resident_evictions: 0,
            len: 2,
            resident: vec![Some(m(100)), None, Some(m(80)), None],
            log: crlf.clone(),
            compact: (len(&crlf), len(&lf)),
        }
    );

    // A duplicate and a cycles upgrade: the first line of each key keeps
    // its place, the upgrade's value replaces the size-only one, and
    // compaction drops the two dead lines.
    let dup = format!("{fresh}100 -\n80 s1\n100 -\n80+900 s1\n");
    let compacted = format!("{fresh}100 -\n80+900 s1\n");
    assert_eq!(
        open_log_shape("shape-dup", dup.as_bytes()),
        Opened {
            loaded: 2,
            resident_evictions: 0,
            len: 2,
            resident: vec![Some(m(100)), Some(Measurement::with_cycles(80, 900)), None, None],
            log: dup.clone(),
            compact: (len(&dup), len(&compacted)),
        }
    );
}

/// One byte that is not UTF-8 damages its own line only: the open loads
/// every other entry, `census` and `verify` count the line as malformed,
/// and compaction drops just that line. A header or meta line that is not
/// UTF-8 still makes the log unreadable, and the open restarts it.
#[test]
fn a_non_utf8_byte_damages_only_its_line() {
    let dir = tmpdir("non-utf8");
    let fp = 0xff_u128;
    let path = log_path(&dir, fp);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let damaged: &[u8] = b"80 s\xff2\n";
    let mut log = format!("{HEADER}\nmeta mod-a target=t sites=4\n100 -\n90 s1\n").into_bytes();
    log.extend_from_slice(damaged);
    log.extend_from_slice(b"70 s3\n60 s1,s3\n50 s9\n");
    std::fs::write(&path, &log).unwrap();

    let store = LocalStore::open(&dir, StoreOptions::default()).unwrap();
    for report in [store.census().unwrap(), store.verify().unwrap()] {
        assert_eq!(
            (report.entries, report.malformed_lines, report.unreadable_logs),
            (5, 1, 0),
            "{report:?}"
        );
        assert!(!report.clean());
    }
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.counters().loaded, 5, "loading continues past the damaged line");
    for (key, size) in [(&[][..], 100), (&[1], 90), (&[3], 70), (&[1, 3], 60), (&[9], 50)] {
        assert_eq!(scope.get(&k(key)), Some(m(size)), "{key:?}");
    }
    let (before, after) = scope.compact().unwrap();
    assert_eq!(before - after, damaged.len() as u64, "compaction drops only the damaged line");
    drop(scope);
    assert!(store.verify().unwrap().clean());
    let scope = store.scope(fp, META).unwrap();
    assert_eq!(scope.counters().loaded, 5, "every entry survived the compaction");
    drop(scope);

    for head in [
        b"optinline-store v1\xff\nmeta mod-a target=t sites=4\n".as_slice(),
        b"optinline-store v1\nmeta mod-a target=t\xff sites=4\n".as_slice(),
    ] {
        std::fs::write(&path, [head, b"100 -\n"].concat()).unwrap();
        let report = store.census().unwrap();
        assert_eq!((report.entries, report.unreadable_logs), (0, 1), "{report:?}");
        let scope = store.scope(fp, META).unwrap();
        assert_eq!(scope.counters().loaded, 0, "a log with an unreadable head restarts");
        drop(scope);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{HEADER}\nmeta mod-a target=t sites=4\n"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
