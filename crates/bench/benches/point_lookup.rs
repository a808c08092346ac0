//! Primary-key serving on a 1M-row table: point probes, small ranges and
//! pk ORDER BY … LIMIT top-k, each run twice — `index` (the planner's
//! `IndexScan` / ordered-pk paths) and `scan` (the same query over
//! `id + 0`, an expression no index serves, so it runs the full-scan
//! pipeline those rewrites replace) — so the speedup *is* the pairwise
//! ratio, measured interleaved in one process.
//!
//! Three non-criterion tables follow the timed runs:
//!
//! * **headline ratio** — wall-clock index-vs-scan ratio for the point
//!   probe; the bench asserts the ≥10× contract, so a planner regression
//!   that stops engaging the index fails the run instead of quietly
//!   printing slower numbers;
//! * **ordered-pk memory** — bytes of the sorted row-index permutation
//!   that serves ranges and top-k (the hash index serves point probes);
//! * **checkpoint write amplification** — bytes written to the page file
//!   by a checkpoint after k point updates vs the first checkpoint, which
//!   writes every page of the table, counted on SimFs. The incremental figure is O(k) pages; the ratio
//!   is the write amplification the paged store removed.
//!
//! Reference numbers live in crates/sqlengine/PERF.md ("Paged storage").

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use swan_sqlengine::{Database, DurabilityConfig, OptimizerConfig, SimFs, Value};

const ROWS: usize = 1_000_000;

/// 1M rows of (pk, group, measure), served from memory (serving never
/// touches the pager; durability is benched separately below).
fn build_db() -> Database {
    let mut db = Database::new();
    db.set_optimizer(OptimizerConfig { threads: 1, ..Default::default() });
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val REAL)").unwrap();
    let t = db.catalog_mut().get_mut("t").unwrap();
    for i in 0..ROWS {
        t.insert_row(vec![
            Value::Integer(i as i64),
            Value::Integer((i % 64) as i64),
            Value::Real((i % 10_000) as f64 / 100.0),
        ])
        .unwrap();
    }
    db
}

/// `(label, primary-key operand)`: `scan` wraps the key in `id + 0`,
/// an expression no index rewrite recognizes.
const MODES: &[(&str, &str)] = &[("index", "id"), ("scan", "id + 0")];

/// `(bench name, query with {key} standing for the mode's operand)`.
const QUERIES: &[(&str, &str)] = &[
    ("pk_eq_1m", "SELECT val FROM t WHERE {key} = 987654"),
    ("pk_between_64_of_1m", "SELECT id, val FROM t WHERE {key} BETWEEN 500000 AND 500063"),
    ("pk_order_limit_10_of_1m", "SELECT id, val FROM t ORDER BY {key} LIMIT 10"),
];

fn bench_point_lookup(c: &mut Criterion) {
    let db = build_db();
    for &(label, key) in MODES {
        for &(name, query) in QUERIES {
            let sql = query.replace("{key}", key);
            c.bench_function(&format!("point_lookup/{name}/{label}"), |b| {
                b.iter(|| black_box(db.query(&sql).unwrap()))
            });
        }
    }

    headline_ratio(&db);
    ordered_pk_memory(&db);
    checkpoint_write_amplification();
}

/// Wall-clock point-probe ratio with the ≥10× floor asserted.
fn headline_ratio(db: &Database) {
    let point = |key: &str| QUERIES[0].1.replace("{key}", key);
    let (index_point, scan_point) = (point(MODES[0].1), point(MODES[1].1));
    let time = |sql: &str, iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(db.query(sql).unwrap());
        }
        start.elapsed().as_secs_f64() / iters as f64
    };
    // Warm both paths, then measure: many probe iterations, fewer scans.
    time(&index_point, 10);
    time(&scan_point, 2);
    let probe = time(&index_point, 2000);
    let scan = time(&scan_point, 20);
    let ratio = scan / probe;
    println!(
        "point_lookup/headline: pk probe {:.2}us vs full scan {:.0}us on {ROWS} rows = {ratio:.0}x",
        probe * 1e6,
        scan * 1e6,
    );
    assert!(
        ratio >= 10.0,
        "pk point lookup must beat the full scan by >=10x on 1M rows, got {ratio:.1}x \
         (index scan disengaged?)"
    );
}

/// Heap bytes of the table's ordered-pk permutation (built by the top-k
/// and range runs above): one `u32` row index per row.
fn ordered_pk_memory(db: &Database) {
    let ord = db.catalog().get("t").unwrap().ordered_pk().unwrap();
    let bytes = ord.capacity() * std::mem::size_of::<u32>();
    println!(
        "point_lookup/ordered_pk_memory: {bytes} B for {ROWS} rows = {:.2} B/row",
        bytes as f64 / ROWS as f64,
    );
}

/// Page-file bytes written by a checkpoint after k point updates vs the
/// first (whole-table) checkpoint, counted on SimFs.
fn checkpoint_write_amplification() {
    const WAL: &str = "/sim/bench.wal";
    const TABLE_ROWS: usize = 50_000;
    const K: usize = 3;

    let fs = SimFs::new();
    let config = DurabilityConfig { checkpoint_bytes: u64::MAX, ..Default::default() };
    let mut db =
        Database::open_on(Arc::new(fs.clone()), PathBuf::from(WAL), config).unwrap();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val REAL)").unwrap();
    let mut i = 0usize;
    while i < TABLE_ROWS {
        let end = (i + 500).min(TABLE_ROWS);
        let mut stmt = String::from("INSERT INTO t VALUES ");
        for (j, id) in (i..end).enumerate() {
            if j > 0 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({id}, {}, {}.25)", id % 64, id % 10_000));
        }
        db.execute(&stmt).unwrap();
        i = end;
    }

    let page_bytes = |from: usize| -> u64 {
        let pages_path = format!("{WAL}.pages");
        fs.ops()[from..]
            .iter()
            .filter_map(|line| {
                let rest = line.strip_prefix("write ")?;
                let (path, tail) = rest.split_once(" @")?;
                (path == pages_path)
                    .then(|| tail.split_once('+')?.1.parse::<u64>().ok())
                    .flatten()
            })
            .sum()
    };

    let mark = fs.ops().len();
    let start = Instant::now();
    db.checkpoint().unwrap();
    let full_time = start.elapsed();
    let full = page_bytes(mark);

    for id in [17usize, 25_000, 49_999] {
        db.execute(&format!("UPDATE t SET val = val + 1 WHERE id = {id}")).unwrap();
    }
    let mark = fs.ops().len();
    let start = Instant::now();
    db.checkpoint().unwrap();
    let incr_time = start.elapsed();
    let incr = page_bytes(mark);

    println!(
        "point_lookup/checkpoint_amplification: full image {full} B ({:.1}ms), \
         after {K} updates {incr} B ({:.1}ms) = {:.0}x write amplification removed",
        full_time.as_secs_f64() * 1e3,
        incr_time.as_secs_f64() * 1e3,
        full as f64 / incr.max(1) as f64,
    );
    assert!(
        incr * 4 < full,
        "incremental checkpoint ({incr} B) must stay far below the full image ({full} B)"
    );
}

criterion_group!(benches, bench_point_lookup);
criterion_main!(benches);
